package chip_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/chip"
	"repro/internal/cpu"
	"repro/internal/machine"
	"repro/internal/phys"
	"repro/internal/trace"
)

// The admission gates (gate.go) replace a NACKed strand's chain of retry
// events with a virtual one, release a waiter whose line another strand
// installs, and let an admitted waiter commit the probe it was NACKed
// with. The tests here compare that run loop with the polling reference
// (gate_ref_test.go), where every retry is an event that probes again:
// every Result field must agree.

// gateShape is one random program and machine variant of FuzzGates.
type gateShape struct {
	seed      uint64
	threads   int  // 1..64
	streams   int  // arrays per thread, 1..3
	kind      int  // 0 load-only, 1 triad-like (last array stored), 2 store-heavy
	congruent bool // every array starts on one controller
	shared    bool // threads walk one of two common regions
	mshr      int  // 1 or 2
	runAhead  int64
	depth     int64 // controller queue depth, 1 or 2
	items     int
}

func shapeOf(seed uint64, threads, streams, flags uint8) gateShape {
	return gateShape{
		seed:      seed,
		threads:   1 + int(threads)%64,
		streams:   1 + int(streams)%3,
		kind:      int(flags&3) % 3,
		congruent: flags&4 != 0,
		shared:    flags&8 != 0,
		mshr:      1 + int(flags>>4&1),
		runAhead:  2 * int64(flags>>5&1),
		depth:     1 + int64(flags>>6&1),
		items:     4 + int(seed%29),
	}
}

// fuzzGen walks one line per array per item. A store-heavy item reads the
// first array and stores every other one, plus the line after the first
// store.
type fuzzGen struct {
	bases []phys.Addr
	kind  int
	n, i  int
}

func (g *fuzzGen) Next(it *trace.Item) bool {
	if g.i >= g.n {
		return false
	}
	off := phys.Addr(g.i) * phys.LineSize
	g.i++
	for j, b := range g.bases {
		write := g.kind == 1 && j == len(g.bases)-1 || g.kind == 2 && j > 0
		it.Acc = append(it.Acc, trace.Access{Addr: b + off, Write: write})
	}
	if g.kind == 2 {
		it.Acc = append(it.Acc, trace.Access{Addr: g.bases[len(g.bases)-1] + off + phys.LineSize, Write: true})
	}
	it.Demand = cpu.Demand{MemOps: int64(len(it.Acc)), Flops: 2, IntOps: 1}
	it.Units = 1
	it.RepBytes = int64(len(it.Acc)) * 8
	return true
}

// program builds fresh generators for the shape. Congruent arrays start
// 4 MB apart, a multiple of every profile's interleave period; spread ones
// are shifted by a seed-chosen number of lines each. A thread's region
// starts after the previous thread's, or, when shared, at one of two
// common starts, so several threads miss on the same lines.
func (s gateShape) program() *trace.Program {
	rng := s.seed | 1
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	shift := make([]phys.Addr, s.streams)
	if !s.congruent {
		for j := range shift {
			shift[j] = phys.Addr(next()%64) * phys.LineSize
		}
	}
	region := phys.Addr(s.items+2) * phys.LineSize
	gens := make([]trace.Generator, s.threads)
	for t := range gens {
		start := phys.Addr(t) * region
		if s.shared {
			start = phys.Addr(t%2) * region
		}
		bases := make([]phys.Addr, s.streams)
		for j := range bases {
			bases[j] = phys.Addr(j+1)<<22 + shift[j] + start
		}
		gens[t] = &fuzzGen{bases: bases, kind: s.kind, n: s.items - int(next()%3)}
	}
	return &trace.Program{Label: "fuzz", Gens: gens}
}

// config applies the shape's variant to a profile.
func (s gateShape) config(cfg chip.Config) chip.Config {
	cfg.MSHRPerStrand = s.mshr
	cfg.RunAhead = s.runAhead
	cfg.Mem.QueueDepth = s.depth
	return cfg
}

// gateMachines caches a gated and a polling machine per configuration
// across fuzz inputs, which run one at a time, since building a machine
// and warming its L2 costs more than a small program's run.
var gateMachines = map[chip.Config][2]*chip.Machine{}

func machinesFor(cfg chip.Config) (gated, polling *chip.Machine) {
	ms, ok := gateMachines[cfg]
	if !ok {
		ms = [2]*chip.Machine{chip.New(cfg), chip.NewPollingMachine(cfg)}
		gateMachines[cfg] = ms
	}
	return ms[0], ms[1]
}

// checkGates runs the shape on every registered profile through both
// loops and reports any Result field that differs. It returns the gated
// runs' summed counters.
func checkGates(t *testing.T, s gateShape) chip.RunStats {
	t.Helper()
	var work chip.RunStats
	for _, prof := range machine.Profiles() {
		m, ref := machinesFor(s.config(prof.Config))
		want := ref.Run(s.program())
		got := m.Run(s.program())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, %+v: the gated loop diverged from the polling reference:\n got  %+v\n want %+v", prof.Name, s, got, want)
		}
		work.Add(m.LastRun())
	}
	return work
}

// gateSeeds cover every kind, with and without shared lines, congruent
// and spread arrays, both MSHR counts, both windows and both depths.
var gateSeeds = []struct {
	seed                    uint64
	threads, streams, flags uint8
}{
	{1, 63, 2, 0x05},  // 64 threads, 3 congruent arrays, triad-like
	{2, 63, 0, 0x00},  // one spread load stream
	{3, 31, 1, 0x06},  // store-heavy, congruent
	{4, 63, 2, 0x0e},  // store-heavy, congruent, shared lines
	{5, 15, 1, 0x0d},  // triad-like, shared, congruent
	{6, 63, 1, 0x28},  // load-only, shared, window 2
	{7, 7, 2, 0x12},   // store-heavy, 2 MSHRs
	{8, 63, 2, 0x46},  // store-heavy, depth 2
	{9, 47, 2, 0x7f},  // everything on
	{10, 0, 0, 0x00},  // one thread
	{11, 63, 0, 0x2c}, // load-only, shared, congruent, window 2
}

// FuzzGates compares the gated run loop with the polling reference on
// small random programs over every registered profile, with a controller
// queue of one or two entries so that convoys form.
func FuzzGates(f *testing.F) {
	for _, s := range gateSeeds {
		f.Add(s.seed, s.threads, s.streams, s.flags)
	}
	f.Fuzz(func(t *testing.T, seed uint64, threads, streams, flags uint8) {
		checkGates(t, shapeOf(seed, threads, streams, flags))
	})
}

// TestGateSeedsReachEveryPath: the seed corpus alone drives every gate
// path that FuzzGates is there to check — admissions, lookahead NACKs,
// and waiters released by another strand's install.
func TestGateSeedsReachEveryPath(t *testing.T) {
	var work chip.RunStats
	for _, s := range gateSeeds {
		work.Add(checkGates(t, shapeOf(s.seed, s.threads, s.streams, s.flags)))
	}
	if work.Admissions == 0 || work.Lookahead == 0 || work.Released == 0 {
		t.Errorf("seed corpus leaves a gate path unreached: %s", work)
	}
}

// TestGatesMatchPollingOnKernels runs the golden table's kernels (triad,
// copy, segmented triad, 2D Jacobi and both LBM layouts) through both run
// loops on the t2 profile with its own queue depth.
func TestGatesMatchPollingOnKernels(t *testing.T) {
	cfg := machine.MustGet("t2").Config
	for _, gp := range goldenProgs {
		for _, threads := range []int{16, 64} {
			t.Run(fmt.Sprintf("%s/%dT", gp.name, threads), func(t *testing.T) {
				m, ref := machinesFor(cfg)
				want := ref.Run(gp.build(threads, 0))
				if got := m.Run(gp.build(threads, 0)); !reflect.DeepEqual(got, want) {
					t.Errorf("gated loop diverged from the polling reference:\n got  %+v\n want %+v", got, want)
				}
			})
		}
	}
}
