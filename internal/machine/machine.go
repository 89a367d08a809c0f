// Package machine is the profile registry: every named machine the
// simulator can model, each a complete, validated chip.Config derived
// from its address interleave. The paper's machine — the UltraSPARC T2
// with four memory controllers on a 512-byte interleave — is the "t2"
// profile; the others vary exactly the parameters the paper holds fixed
// (controller count, interleave granularity, hashed vs. bit-field
// mapping), so controller-scaling and granularity studies are one profile
// name away instead of a code change.
//
// Geometry is derived, never restated: a profile specifies its interleave
// and L2 capacity, and the bank count, controller count and analyzer
// period all follow from the mapping. Adding a machine scenario is one
// entry in the table below.
package machine

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/cache"
	"repro/internal/chip"
	"repro/internal/mem"
	"repro/internal/phys"
)

// DefaultName is the profile the CLIs use when none is requested.
const DefaultName = "t2"

// Profile is a named, validated machine description.
type Profile struct {
	Name   string
	Doc    string
	Config chip.Config
}

// config assembles a full machine description around a mapping: the
// calibrated T2 core array, crossbar and channel timings (DESIGN.md
// Sect. 6) with the cache and controller geometry derived from the
// interleave. The timing side is deliberately shared across profiles so
// that scaling studies vary one thing — the memory system's shape.
func config(m phys.Mapping, l2Bytes int64, l2Ways int) chip.Config {
	return chip.Config{
		Cores:          8,
		StrandsPerCore: 8,
		GroupsPerCore:  2,
		ClockHz:        1.2e9,
		XbarLatency:    3,
		L2HitLatency:   20,
		L2BankService:  4,
		L2:             cache.Config{SizeBytes: l2Bytes, Ways: l2Ways},
		Mem:            mem.Defaults(),
		Mapping:        m,
		MSHRPerStrand:  1,
		StoreBuffer:    8,
		RetryDelay:     24,
		RunAhead:       2,
	}
}

// t2L2Bytes and t2L2Ways are the UltraSPARC T2 L2 capacity every profile
// shares: 4 MB, 16-way.
const (
	t2L2Bytes = 4 << 20
	t2L2Ways  = 16
)

// profiles builds the registry in presentation order.
func profiles() []Profile {
	mk := func(name, doc string, m phys.Mapping) Profile {
		return Profile{Name: name, Doc: doc, Config: config(m, t2L2Bytes, t2L2Ways)}
	}
	return []Profile{
		mk("t2", "UltraSPARC T2: 4 controllers x 2 banks, 64 B granule, 512 B period (the paper's machine)",
			phys.T2()),
		mk("t2-1mc", "degraded T2 with a single controller: 1 x 2 banks, 128 B period (no interleave to alias against)",
			phys.NewInterleave("t2-1mc", phys.LineSize, 1, 2)),
		mk("t2-2mc", "degraded T2 with two controllers: 2 x 2 banks, 256 B period",
			phys.NewInterleave("t2-2mc", phys.LineSize, 2, 2)),
		mk("mc8", "hypothetical 8-controller chip: 8 x 2 banks, 64 B granule, 1 kB period",
			phys.NewInterleave("mc8", phys.LineSize, 8, 2)),
		mk("t2-wide1k", "T2 controllers on a coarse 1 kB interleave granule: 4 x 2 banks, 8 kB period",
			phys.NewInterleave("t2-wide1k", 1024, 4, 2)),
		mk("t2-wide4k", "T2 controllers on a page-like 4 kB interleave granule: 4 x 2 banks, 32 kB period",
			phys.NewInterleave("t2-wide4k", 4096, 4, 2)),
		mk("xor", "T2 geometry under a hashed (XOR-folded) interleave: the aliasing-ablation machine",
			phys.XORMapping{}),
		mk("single", "one controller, one bank, no interleave: the serialization baseline",
			phys.Single()),
	}
}

// The registry is built and validated once; profiles are immutable value
// descriptions, so handing out copies of the validated slice is safe.
var (
	registryOnce sync.Once
	registry     []Profile
)

func validated() []Profile {
	registryOnce.Do(func() {
		registry = profiles()
		for _, p := range registry {
			chip.New(p.Config) // topology validation
			if err := cache.Check(p.Config.L2, p.Config.Mapping); err != nil {
				panic(fmt.Sprintf("machine: profile %s: %v", p.Name, err))
			}
			mem.New(p.Config.Mem, p.Config.Mapping.Controllers())
		}
	})
	return registry
}

// Profiles returns every registered profile in presentation order, each
// validated by constructing its machine (an invalid registry entry panics
// on first use rather than deep inside a sweep).
func Profiles() []Profile {
	ps := validated()
	out := make([]Profile, len(ps))
	copy(out, ps)
	return out
}

// Names returns the registered profile names, sorted.
func Names() []string {
	ps := validated()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	sort.Strings(names)
	return names
}

// Get returns the named profile, validated.
func Get(name string) (Profile, error) {
	for _, p := range validated() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("machine: unknown profile %q (have %v)", name, Names())
}

// MustGet is Get for callers whose profile name is static.
func MustGet(name string) Profile {
	p, err := Get(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Tag returns the profile name as it is stamped into BENCH trajectories:
// the name itself for every profile except the default, which maps to ""
// so the field is omitted from the JSON and historical t2 trajectories
// stay byte-identical. Every producer of a "machine" stamp must go
// through this so the omission rule lives in exactly one place.
func Tag(name string) string {
	if name == DefaultName {
		return ""
	}
	return name
}
