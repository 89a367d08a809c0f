package machine

import (
	"strings"
	"testing"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/phys"
	"repro/internal/trace"
)

func TestRegistryValidatesAndDefaultExists(t *testing.T) {
	ps := Profiles() // panics if any entry is invalid
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.Name] {
			t.Errorf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		if p.Doc == "" {
			t.Errorf("profile %q has no doc", p.Name)
		}
		if p.Config.Mapping.Name() != p.Name && p.Name != "single" && p.Name != "xor" {
			// Interleave-backed profiles name their mapping after themselves.
			if iv, ok := p.Config.Mapping.(phys.Interleave); ok && iv.Label != p.Name {
				t.Errorf("profile %q wraps mapping %q", p.Name, iv.Label)
			}
		}
	}
	if !seen[DefaultName] {
		t.Fatalf("default profile %q not registered", DefaultName)
	}
	if _, err := Get("no-such-machine"); err == nil || !strings.Contains(err.Error(), "no-such-machine") {
		t.Errorf("Get(no-such-machine) err = %v, want a naming error", err)
	}
}

// TestT2ProfileMatchesCalibratedConfig pins the byte-identity contract:
// the t2 profile must be exactly the historical chip.Default() — same
// topology, timings, L2 geometry and a mapping that resolves to the same
// bit fields.
func TestT2ProfileMatchesCalibratedConfig(t *testing.T) {
	cfg := MustGet("t2").Config
	if cfg.Cores != 8 || cfg.StrandsPerCore != 8 || cfg.GroupsPerCore != 2 {
		t.Errorf("t2 topology %+v", cfg)
	}
	if cfg.ClockHz != 1.2e9 || cfg.XbarLatency != 3 || cfg.L2HitLatency != 20 || cfg.L2BankService != 4 {
		t.Errorf("t2 timings %+v", cfg)
	}
	if cfg.L2.SizeBytes != 4<<20 || cfg.L2.Ways != 16 || cfg.Mapping.Banks() != 8 {
		t.Errorf("t2 L2 geometry %+v on %d banks", cfg.L2, cfg.Mapping.Banks())
	}
	if cfg.Mem.ReadService != 15 || cfg.Mem.WriteService != 15 || cfg.Mem.WriteCouple != 4 ||
		cfg.Mem.Latency != 160 || cfg.Mem.QueueDepth != 8 {
		t.Errorf("t2 controller timings %+v", cfg.Mem)
	}
	if cfg.MSHRPerStrand != 1 || cfg.StoreBuffer != 8 || cfg.RetryDelay != 24 || cfg.RunAhead != 2 {
		t.Errorf("t2 strand parameters %+v", cfg)
	}
	iv, ok := cfg.Mapping.(phys.Interleave)
	if !ok || iv.BankShift != phys.LineShift || iv.BankBits != 1 || iv.CtrlBits != 2 {
		t.Errorf("t2 mapping %+v, want the documented interleave: bank bits 8:6, controller bits 8:7", cfg.Mapping)
	}
}

// marching is a minimal trace generator: loads and a store sweeping
// across memory, enough to drive misses, evictions and writebacks.
type marching struct {
	n    int
	pos  int
	addr phys.Addr
}

func (g *marching) Next(it *trace.Item) bool {
	if g.pos >= g.n {
		return false
	}
	g.pos++
	it.Acc = append(it.Acc,
		trace.Access{Addr: g.addr},
		trace.Access{Addr: g.addr + 1<<22, Write: true})
	g.addr += phys.LineSize
	it.Demand = cpu.Demand{MemOps: 2, Flops: 1}
	it.Units = 8
	it.RepBytes = 16
	return true
}

// TestEveryProfileRunsEndToEnd drives a small program through every
// registered machine: the cache geometry, controller count and wide-
// granule indexing must all hold together outside the t2 case.
func TestEveryProfileRunsEndToEnd(t *testing.T) {
	for _, p := range Profiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			gens := make([]trace.Generator, 8)
			for i := range gens {
				gens[i] = &marching{n: 64, addr: phys.Addr(i) << 24}
			}
			prog := &trace.Program{Label: p.Name, Gens: gens}
			r := chip.New(p.Config).Run(prog)
			if r.Cycles <= 0 || r.Units != 8*64*8 {
				t.Fatalf("%s: cycles %d units %d", p.Name, r.Cycles, r.Units)
			}
			if len(r.MCUtil) != p.Config.Mapping.Controllers() {
				t.Errorf("%s: %d controller stats, mapping has %d", p.Name, len(r.MCUtil), p.Config.Mapping.Controllers())
			}
		})
	}
}

// TestPlannerIsProfileGeneric is the analyzer-side crossval predicate for
// the profile layer: for every periodic machine, the planner's per-array
// offsets must reach the best possible controller concurrency
// (min(streams, controllers)), and bases left congruent mod the profile's
// period must collapse to a single controller — i.e. the planned offsets
// "come out right" for machines the planner has never been hardwired to.
func TestPlannerIsProfileGeneric(t *testing.T) {
	const streams = 4
	for _, p := range Profiles() {
		mp := p.Config.Mapping
		if mp.Period() <= 0 {
			continue // hashed: no period, nothing to plan against
		}
		plan := core.PlanArrayOffsets(mp, streams)
		want := float64(streams)
		if c := mp.Controllers(); c < streams {
			want = float64(c)
		}
		if plan.Concurrency != want {
			t.Errorf("%s: planned concurrency %.2f, want %.0f", p.Name, plan.Concurrency, want)
		}
		// The planner's offsets step by Period/Controllers (line-aligned).
		step := mp.Period() / int64(mp.Controllers())
		if step%phys.LineSize != 0 {
			step = step / phys.LineSize * phys.LineSize
			if step == 0 {
				step = phys.LineSize
			}
		}
		for i, off := range plan.Offsets {
			if off != int64(i)*step {
				t.Errorf("%s: offset[%d] = %d, want %d", p.Name, i, off, int64(i)*step)
			}
		}
		// Congruent bases are the convoy on every periodic machine with >1
		// controller.
		bases := make([]phys.Addr, streams)
		for i := range bases {
			bases[i] = phys.Addr(int64(i) * mp.Period())
		}
		cc := core.MeanConcurrency(mp, core.StreamSet{Bases: bases, Stride: phys.LineSize}, 0)
		if cc != 1 {
			t.Errorf("%s: congruent streams concurrency %.2f, want 1", p.Name, cc)
		}
		// Row plans follow the same derivation.
		rp := core.PlanRows(mp)
		if rp.SegAlign != mp.Period() || rp.Shift != mp.Period()/int64(mp.Controllers()) {
			t.Errorf("%s: row plan %+v inconsistent with period %d", p.Name, rp, mp.Period())
		}
	}
}
