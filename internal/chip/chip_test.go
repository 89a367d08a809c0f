package chip

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/phys"
	"repro/internal/trace"
)

// scripted is a hand-written generator for unit tests.
type scripted struct {
	items []trace.Item
	pos   int
}

func (s *scripted) Next(it *trace.Item) bool {
	if s.pos >= len(s.items) {
		return false
	}
	src := s.items[s.pos]
	s.pos++
	it.Acc = append(it.Acc, src.Acc...)
	it.Demand = src.Demand
	it.Units = src.Units
	it.RepBytes = src.RepBytes
	return true
}

func loads(addrs ...phys.Addr) trace.Item {
	it := trace.Item{Units: 1}
	for _, a := range addrs {
		it.Acc = append(it.Acc, trace.Access{Addr: a})
	}
	return it
}

func stores(addrs ...phys.Addr) trace.Item {
	it := trace.Item{Units: 1}
	for _, a := range addrs {
		it.Acc = append(it.Acc, trace.Access{Addr: a, Write: true})
	}
	return it
}

func prog(gens ...trace.Generator) *trace.Program {
	return &trace.Program{Label: "test", Gens: gens}
}

func TestSingleLoadLatency(t *testing.T) {
	cfg := t2cfg()
	m := New(cfg)
	r := m.Run(prog(&scripted{items: []trace.Item{loads(0x10000)}}))
	// xbar + bank + read service + memory latency + xbar.
	want := cfg.XbarLatency + cfg.L2BankService + cfg.Mem.ReadService + cfg.Mem.Latency + cfg.XbarLatency
	if r.Cycles != want {
		t.Errorf("single load took %d cycles, want %d", r.Cycles, want)
	}
}

func TestL2HitFasterThanMiss(t *testing.T) {
	m := New(t2cfg())
	r := m.Run(prog(&scripted{items: []trace.Item{loads(0x10000), loads(0x10000)}}))
	miss := t2cfg().XbarLatency + t2cfg().L2BankService + t2cfg().Mem.ReadService + t2cfg().Mem.Latency + t2cfg().XbarLatency
	hit := t2cfg().XbarLatency + t2cfg().L2HitLatency + t2cfg().XbarLatency
	if r.Cycles != miss+hit {
		t.Errorf("miss+hit took %d cycles, want %d", r.Cycles, miss+hit)
	}
	if r.L2.Hits != 1 || r.L2.Misses != 1 {
		t.Errorf("L2 stats %+v", r.L2)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() *trace.Program {
		var gens []trace.Generator
		for i := 0; i < 16; i++ {
			var items []trace.Item
			for k := 0; k < 50; k++ {
				items = append(items, loads(phys.Addr(0x10000+i*4096+k*64)))
				items = append(items, stores(phys.Addr(0x900000+i*4096+k*64)))
			}
			gens = append(gens, &scripted{items: items})
		}
		return prog(gens...)
	}
	m := New(t2cfg())
	r1 := m.Run(mk())
	r2 := m.Run(mk())
	if r1.Cycles != r2.Cycles || r1.Units != r2.Units {
		t.Errorf("non-deterministic: %d/%d vs %d/%d cycles/units", r1.Cycles, r1.Units, r2.Cycles, r2.Units)
	}
}

func TestPostedStoresDoNotBlock(t *testing.T) {
	// A burst of 4 stores to distinct lines completes in far less than 4
	// memory round trips: the strand only pays bank occupancy.
	cfg := t2cfg()
	m := New(cfg)
	r := m.Run(prog(&scripted{items: []trace.Item{
		stores(0x10000, 0x10040, 0x10080, 0x100c0),
	}}))
	roundTrip := cfg.Mem.ReadService + cfg.Mem.Latency
	if r.Cycles >= 2*roundTrip {
		t.Errorf("4 posted stores took %d cycles — stores are blocking", r.Cycles)
	}
}

func TestStoreBufferBackpressure(t *testing.T) {
	// With a store buffer of 1, the second store must wait for the first
	// fill; with 8 it must not.
	var items []trace.Item
	for k := 0; k < 16; k++ {
		items = append(items, stores(phys.Addr(0x10000+k*64)))
	}
	cfg1 := t2cfg()
	cfg1.StoreBuffer = 1
	r1 := New(cfg1).Run(prog(&scripted{items: items}))

	items2 := make([]trace.Item, len(items))
	copy(items2, items)
	cfg8 := t2cfg()
	r8 := New(cfg8).Run(prog(&scripted{items: items2}))
	if r1.Cycles <= r8.Cycles {
		t.Errorf("store buffer 1 (%d cycles) not slower than 8 (%d)", r1.Cycles, r8.Cycles)
	}
	if r1.StoreStall == 0 {
		t.Error("no store stalls recorded with buffer depth 1")
	}
}

func TestMSHRAblationOverlapsLoads(t *testing.T) {
	// One item with 4 independent loads: with 4 MSHRs the latencies
	// overlap; with 1 they serialize.
	mk := func() *trace.Program {
		return prog(&scripted{items: []trace.Item{
			loads(0x10000, 0x20000, 0x30000, 0x40000),
		}})
	}
	cfg1 := t2cfg()
	r1 := New(cfg1).Run(mk())
	cfg4 := t2cfg()
	cfg4.MSHRPerStrand = 4
	r4 := New(cfg4).Run(mk())
	if r4.Cycles >= r1.Cycles {
		t.Errorf("4 MSHRs (%d cycles) not faster than 1 (%d)", r4.Cycles, r1.Cycles)
	}
	if r1.Cycles < 4*t2cfg().Mem.Latency {
		t.Errorf("1 MSHR did not serialize: %d cycles", r1.Cycles)
	}
}

func TestRunAheadWindowCouplesStrands(t *testing.T) {
	// Strand 0 has fast work (hits), strand 1 slow work (misses). With a
	// run-ahead window, strand 0 must not finish long before strand 1
	// starts its last item.
	mkFast := func() trace.Generator {
		var items []trace.Item
		for k := 0; k < 40; k++ {
			items = append(items, trace.Item{Units: 1, Demand: cpu.Demand{IntOps: 1}})
		}
		return &scripted{items: items}
	}
	mkSlow := func() trace.Generator {
		var items []trace.Item
		for k := 0; k < 40; k++ {
			items = append(items, loads(phys.Addr(0x10000+k*64*8)))
		}
		return &scripted{items: items}
	}
	cfg := t2cfg()
	cfg.RunAhead = 2
	r := New(cfg).Run(prog(mkFast(), mkSlow()))

	cfgFree := t2cfg()
	cfgFree.RunAhead = 0
	rFree := New(cfgFree).Run(prog(mkFast(), mkSlow()))

	// Total cycles equal (the slow strand dominates), but the coupled run
	// must schedule the fast strand across the whole horizon, which shows
	// up as nonzero parked time... observable via identical finish but
	// the run-ahead window preventing early retirement is internal; the
	// cheap observable: both runs complete and produce the same units.
	if r.Units != 80 || rFree.Units != 80 {
		t.Errorf("units %d / %d, want 80", r.Units, rFree.Units)
	}
	if r.Cycles < rFree.Cycles {
		t.Errorf("coupled run (%d) finished before free run (%d)", r.Cycles, rFree.Cycles)
	}
}

func TestXORMappingRemovesAliasing(t *testing.T) {
	// The A1 ablation: congruent streams that convoy under the T2 mapping
	// spread out under the hashed mapping.
	mk := func() *trace.Program {
		var gens []trace.Generator
		for th := 0; th < 64; th++ {
			var items []trace.Item
			base := phys.Addr(0x1000000 + th*65536)
			for k := 0; k < 64; k++ {
				// Two reads congruent mod 512 plus a store, like triad.
				items = append(items, trace.Item{
					Units: 8,
					Acc: []trace.Access{
						{Addr: base + phys.Addr(k*64)},
						{Addr: base + 0x200000 + phys.Addr(k*64)},
						{Addr: base + 0x400000 + phys.Addr(k*64), Write: true},
					},
					Demand:   cpu.Demand{MemOps: 24, Flops: 16, IntOps: 8},
					RepBytes: 192,
				})
			}
			gens = append(gens, &scripted{items: items})
		}
		return prog(gens...)
	}
	t2 := New(t2cfg())
	rT2 := t2.Run(mk())

	cfgX := t2cfg()
	cfgX.Mapping = phys.XORMapping{}
	rX := New(cfgX).Run(mk())
	if rX.GBps < 1.5*rT2.GBps {
		t.Errorf("hashed mapping %.2f GB/s not well above T2 mapping %.2f GB/s", rX.GBps, rT2.GBps)
	}
}

func TestPlacementEquidistant(t *testing.T) {
	cfg := t2cfg()
	counts := make(map[int]int)
	for th := 0; th < 16; th++ {
		core, group := cfg.Place(th)
		counts[core]++
		if group != th/8%2 {
			t.Errorf("thread %d group %d", th, group)
		}
	}
	for core, c := range counts {
		if c != 2 {
			t.Errorf("core %d has %d threads, want 2", core, c)
		}
	}
}

func TestResultDerivedMetrics(t *testing.T) {
	m := New(t2cfg())
	r := m.Run(prog(&scripted{items: []trace.Item{
		{Units: 8, RepBytes: 192, Acc: []trace.Access{{Addr: 0x10000}}},
	}}))
	if r.Units != 8 || r.RepBytes != 192 {
		t.Errorf("units/bytes %d/%d", r.Units, r.RepBytes)
	}
	if r.GBps <= 0 || r.MUPs <= 0 || r.Seconds <= 0 {
		t.Errorf("derived metrics %+v", r)
	}
}

func TestTooManyThreadsPanics(t *testing.T) {
	m := New(t2cfg())
	gens := make([]trace.Generator, 65)
	for i := range gens {
		gens[i] = &scripted{}
	}
	defer func() {
		if recover() == nil {
			t.Error("65 threads on 64 strands did not panic")
		}
	}()
	m.Run(prog(gens...))
}

// TestTeamSizeValidationNamesTheTopology pins the team-size check against
// Config.MaxThreads: an oversized team must fail loudly with the machine's
// topology in the message — never be silently wrapped onto occupied
// strands — and the check must follow the configured topology, not the
// default one.
func TestTeamSizeValidationNamesTheTopology(t *testing.T) {
	cfg := t2cfg()
	cfg.Cores = 2
	cfg.StrandsPerCore = 4
	m := New(cfg)
	gens := make([]trace.Generator, 9) // one more than 2x4 strands
	for i := range gens {
		gens[i] = &scripted{}
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("9 threads on 8 strands did not panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %v (%T), want a message", r, r)
		}
		for _, frag := range []string{"9 threads", "8 hardware strands", "2 cores", "4 strands"} {
			if !strings.Contains(msg, frag) {
				t.Errorf("panic message %q does not name %q", msg, frag)
			}
		}
	}()
	m.Run(prog(gens...))
}

// marching generates items streaming loads and a store across memory — a
// synthetic triad that exercises misses, dirty evictions, NACK retries and
// the run-ahead window. Its Next never allocates after the first item.
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
		trace.Access{Addr: g.addr + 1<<22},
		trace.Access{Addr: g.addr + 2<<22, Write: true})
	g.addr += phys.LineSize
	it.Demand = cpu.Demand{MemOps: 3, Flops: 2, IntOps: 1}
	it.Units = 8
	it.RepBytes = 24
	return true
}

// TestRunLoopAllocationsDoNotScaleWithWork is the allocation regression
// for the steady-state run loop: quadrupling the simulated work must not
// change the allocation count, because every per-event and per-access cost
// (typed wakeups, single-probe L2 path) is allocation-free. Only fixed
// per-run setup (cache arrays, strands, program plumbing) may allocate.
func TestRunLoopAllocationsDoNotScaleWithWork(t *testing.T) {
	run := func(items int) func() {
		return func() {
			gens := make([]trace.Generator, 16)
			for i := range gens {
				gens[i] = &marching{n: items, addr: phys.Addr(i) << 24}
			}
			New(t2cfg()).Run(prog(gens...))
		}
	}
	const rounds = 5
	base := testing.AllocsPerRun(rounds, run(250))
	big := testing.AllocsPerRun(rounds, run(1000))
	// 16 strands × 750 extra items × 3 accesses would be tens of thousands
	// of allocations if the event or access path regressed to closures or
	// boxing; allow a small fixed slack for runtime noise.
	if delta := big - base; delta > 64 {
		t.Errorf("4x work grew run allocations by %.0f (from %.0f to %.0f); hot path is no longer allocation-free", delta, base, big)
	}
}

// t2cfg is the calibrated T2 machine the historical chip tests were
// written against. It mirrors the "t2" profile in internal/machine, which
// cannot be imported here without an import cycle; the machine package's
// TestT2ProfileMatchesCalibratedConfig pins the two to each other.
func t2cfg() Config {
	return Config{
		Cores:          8,
		StrandsPerCore: 8,
		GroupsPerCore:  2,
		ClockHz:        1.2e9,
		XbarLatency:    3,
		L2HitLatency:   20,
		L2BankService:  4,
		L2:             cache.Config{SizeBytes: 4 << 20, Ways: 16},
		Mem:            mem.Defaults(),
		Mapping:        phys.T2(),
		MSHRPerStrand:  1,
		StoreBuffer:    8,
		RetryDelay:     24,
		RunAhead:       2,
	}
}
