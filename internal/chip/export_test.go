package chip

import (
	"repro/internal/cache"
	"repro/internal/trace"
)

// NewPollingMachine is the polling reference run loop (gate_ref_test.go)
// for the external tests, which can reach every registered machine
// profile.
var NewPollingMachine = newPollingMachine

// WarmImage returns the warm-up image that a fresh machine of cfg's L2
// geometry restores on its first run.
func WarmImage(cfg Config) *cache.Image {
	m := New(cfg)
	m.Run(&trace.Program{Label: "empty", Gens: []trace.Generator{&scripted{}}})
	return m.warmImg
}

// L2Image snapshots the machine's whole L2 tag store.
func (m *Machine) L2Image() *cache.Image { return m.rs.l2.Snapshot() }
