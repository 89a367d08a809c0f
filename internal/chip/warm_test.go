package chip_test

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/phys"
)

// TestWarmMatchesLineByLineInstall: on every registered profile, and on t2
// with a 2 MB 8-way and a 1 MB 4-way L2, cache.Banked.Warm from 1 TB, the
// L2 state every run starts from, equals a fresh cache that installs the
// same L2-sized range line by line through Access. Warm runs on a cache
// that has already been used, as it does from a machine's second run on,
// so a set record it leaves stale shows too. The whole Banked values are
// compared: every tag, partial tag, recency stack, valid and dirty mask,
// and the counters, which both clear.
func TestWarmMatchesLineByLineInstall(t *testing.T) {
	const base phys.Addr = 1 << 40
	var profiles []machine.Profile
	for _, l2 := range []cache.Config{{SizeBytes: 2 << 20, Ways: 8}, {SizeBytes: 1 << 20, Ways: 4}} {
		p := machine.MustGet("t2")
		p.Name, p.Config.L2 = "t2 with a smaller L2", l2
		profiles = append(profiles, p)
	}
	for _, p := range append(machine.Profiles(), profiles...) {
		cfg := p.Config
		ref := cache.New(cfg.L2, cfg.Mapping)
		for i := range cfg.L2.SizeBytes / phys.LineSize {
			ref.Access(base+phys.Addr(i*phys.LineSize), true)
		}
		ref.ResetStats()

		got := cache.New(cfg.L2, cfg.Mapping)
		for i := range int64(4096) {
			got.Access(phys.Addr(i*i*phys.LineSize), i%3 == 0)
		}
		got.Warm(base)
		if !reflect.DeepEqual(*got, *ref) {
			t.Errorf("%s (%d KB, %d ways): Warm differs from installing its range line by line", p.Name, cfg.L2.SizeBytes>>10, cfg.L2.Ways)
		}
	}
}
