package cache

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/phys"
)

func small() Config {
	return Config{SizeBytes: 64 * 1024, Ways: 4}
}

func TestMissThenHit(t *testing.T) {
	c := New(small(), phys.T2())
	if r := c.Access(0x1000, false); r.Hit {
		t.Error("cold access hit")
	}
	if r := c.Access(0x1000, false); !r.Hit {
		t.Error("second access missed")
	}
	if r := c.Access(0x1038, false); !r.Hit {
		t.Error("same-line access missed")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 {
		t.Errorf("stats %+v", s)
	}
}

func TestWriteAllocateAndWriteback(t *testing.T) {
	cfg := small()
	c := New(cfg, phys.T2())
	// Fill one set with dirty lines, then overflow it: the LRU victim must
	// come back as a dirty writeback with its reconstructed address.
	setsPerBank := c.SetsPerBank()
	stride := phys.Addr(setsPerBank) * 512 // same bank, same set
	base := phys.Addr(0x40)                // bank 1
	var addrs []phys.Addr
	for i := 0; i <= cfg.Ways; i++ {
		addrs = append(addrs, base+phys.Addr(i)*stride)
	}
	for i := 0; i < cfg.Ways; i++ {
		if r := c.Access(addrs[i], true); r.Hit || r.VictimDirty {
			t.Fatalf("fill %d: unexpected %+v", i, r)
		}
	}
	r := c.Access(addrs[cfg.Ways], true)
	if r.Hit {
		t.Fatal("overflow access hit")
	}
	if !r.VictimDirty {
		t.Fatal("LRU dirty victim not written back")
	}
	if r.Victim != addrs[0] {
		t.Fatalf("victim %#x, want %#x (LRU)", r.Victim, addrs[0])
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks %d", c.Stats().Writebacks)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	cfg := small()
	c := New(cfg, phys.T2())
	setsPerBank := c.SetsPerBank()
	stride := phys.Addr(setsPerBank) * 512
	for i := 0; i <= cfg.Ways; i++ {
		if r := c.Access(phys.Addr(i)*stride, false); r.VictimDirty {
			t.Fatal("clean eviction flagged dirty")
		}
	}
}

func TestLRUTouchOrder(t *testing.T) {
	cfg := small()
	c := New(cfg, phys.T2())
	stride := phys.Addr(c.SetsPerBank()) * 512
	a0 := phys.Addr(0)
	// Fill ways, re-touch a0 so it is MRU, then overflow: victim must not
	// be a0.
	for i := 0; i < cfg.Ways; i++ {
		c.Access(phys.Addr(i)*stride, true)
	}
	c.Access(a0, false)
	r := c.Access(phys.Addr(cfg.Ways)*stride, false)
	if r.VictimDirty && r.Victim == a0 {
		t.Error("LRU evicted the most recently used line")
	}
	if !c.Contains(a0) {
		t.Error("re-touched line evicted")
	}
}

func TestThrashingPowerOfTwoStride(t *testing.T) {
	// The LBM observation: with a stride that maps all streams to the same
	// sets, more streams than ways thrash. Streaming 8 arrays of stride
	// cacheSize apart through a 4-way cache must give ~0% hit rate on
	// revisit.
	cfg := small()
	c := New(cfg, phys.T2())
	for rep := 0; rep < 2; rep++ {
		for s := 0; s < 8; s++ {
			c.Access(phys.Addr(s)*phys.Addr(cfg.SizeBytes), false)
		}
	}
	if hr := c.Stats().HitRate(); hr > 0.01 {
		t.Errorf("thrash hit rate %.2f, want ~0", hr)
	}
}

func TestCapacityProperty(t *testing.T) {
	// A working set that fits fully is hit on every revisit.
	cfg := small()
	f := func(seed uint16) bool {
		c := New(cfg, phys.T2())
		base := phys.Addr(seed) * 4096
		lines := cfg.SizeBytes / phys.LineSize / 2 // half capacity
		for i := int64(0); i < lines; i++ {
			c.Access(base+phys.Addr(i*64), false)
		}
		for i := int64(0); i < lines; i++ {
			if !c.Contains(base + phys.Addr(i*64)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestVictimReconstruction(t *testing.T) {
	// Every dirty victim address must map to the same set it was evicted
	// from — otherwise writeback traffic would hit wrong controllers.
	cfg := small()
	f := func(raw []uint32) bool {
		c := New(cfg, phys.T2())
		m := phys.T2()
		for _, r := range raw {
			addr := phys.Addr(r) &^ 63
			res := c.Access(addr, true)
			if res.VictimDirty {
				if m.Bank(res.Victim) != m.Bank(addr) {
					// Victim must come from the same bank as the access
					// that evicted it (same set).
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDerivedT2Geometry(t *testing.T) {
	c := New(Config{SizeBytes: 4 << 20, Ways: 16}, phys.T2())
	if c.SetsPerBank() != 512 {
		t.Errorf("T2 L2 sets per bank = %d, want 512", c.SetsPerBank())
	}
}

func TestDerivedGeometryFollowsMapping(t *testing.T) {
	cases := []struct {
		m       phys.Mapping
		perBank int
	}{
		{phys.NewInterleave("t2-1mc", 64, 1, 2), 2048},
		{phys.NewInterleave("mc8", 64, 8, 2), 256},
		{phys.NewInterleave("t2-wide4k", 4096, 4, 2), 512},
	}
	for _, c := range cases {
		b := New(Config{SizeBytes: 4 << 20, Ways: 16}, c.m)
		if sets := len(b.sets); sets != c.m.Banks()*c.perBank {
			t.Errorf("%s: %d sets, want %d banks x %d", c.m.Name(), sets, c.m.Banks(), c.perBank)
		}
		if b.SetsPerBank() != c.perBank {
			t.Errorf("%s: %d sets per bank, want %d", c.m.Name(), b.SetsPerBank(), c.perBank)
		}
	}
}

// TestWideInterleaveIndexingBijective pins the coarse-interleave tag
// store: distinct lines within one granule (which the default indexing
// would fold together) must stay distinct, and a full sweep over several
// periods must be re-visitable with a 100% hit rate when it fits.
func TestWideInterleaveIndexingBijective(t *testing.T) {
	m := phys.NewInterleave("t2-wide1k", 1024, 4, 2)
	c := New(Config{SizeBytes: 64 * 1024, Ways: 4}, m)
	// 64 kB cache, 1024 lines; touch 512 distinct lines spanning granules.
	const lines = 512
	for i := 0; i < lines; i++ {
		if r := c.Access(phys.Addr(i)*64, false); r.Hit {
			t.Fatalf("cold access %d hit", i)
		}
	}
	for i := 0; i < lines; i++ {
		if !c.Contains(phys.Addr(i) * 64) {
			t.Fatalf("line %d lost — wide indexing is not bijective", i)
		}
	}
	if hr := c.Stats().HitRate(); hr != 0 {
		t.Errorf("hit rate %.2f during cold sweep, want 0", hr)
	}
}

// TestWideInterleaveVictimReconstruction pins reconstruct for the
// excised-field indexing: a dirty victim's rebuilt address must map to the
// bank and set it was evicted from.
func TestWideInterleaveVictimReconstruction(t *testing.T) {
	m := phys.NewInterleave("t2-wide1k", 1024, 4, 2)
	cfg := Config{SizeBytes: 64 * 1024, Ways: 4}
	c := New(cfg, m)
	probe := func(a phys.Addr) (bank, set int) {
		p := c.ProbeLine(a)
		return p.Bank(), int(p.set)
	}
	// Overflow one set with dirty lines; every victim must reconstruct to
	// the evicting set.
	base := phys.Addr(0x400) // bank 1 granule
	b0, s0 := probe(base)
	stride := phys.Addr(c.SetsPerBank()) * phys.Addr(m.Period())
	for i := 0; i <= cfg.Ways+2; i++ {
		a := base + phys.Addr(i)*stride
		res := c.Access(a, true)
		if res.VictimDirty {
			vb, vs := probe(res.Victim)
			if vb != b0 || vs != s0 {
				t.Fatalf("victim %#x reconstructs to bank/set %d/%d, want %d/%d", res.Victim, vb, vs, b0, s0)
			}
		}
	}
	if c.Stats().Writebacks == 0 {
		t.Fatal("overflow produced no writebacks — test exercised nothing")
	}
}

func TestBankStatsAndReset(t *testing.T) {
	c := New(small(), phys.T2())
	c.Access(0x40, true) // bank 1
	c.Access(0x40, false)
	if s := c.Stats(); s != (Stats{Hits: 1, Misses: 1}) {
		t.Errorf("stats %+v, want one hit and one miss", s)
	}
	c.ResetStats()
	if c.Stats().Misses != 0 {
		t.Error("ResetStats did not clear counters")
	}
	if !c.Contains(0x40) {
		t.Error("ResetStats dropped contents")
	}
	c.Reset()
	if c.Contains(0x40) {
		t.Error("Reset kept contents")
	}
}

// TestNewRejects17Ways pins the associativity limit: the recency stack
// holds one 4-bit way number per way in one word.
func TestNewRejects17Ways(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "16-way limit") {
			t.Errorf("17-way cache: recovered %q, want the 16-way limit panic", msg)
		}
	}()
	// 17 ways × 4 sets per bank × 8 banks: every other geometry check passes.
	New(Config{SizeBytes: 17 * 4 * 8 * 64, Ways: 17}, phys.T2())
}

// TestBadGeometryPanics: a cache whose sets do not divide across the
// mapping's banks is refused — here 4 sets of 4 ways on the T2's 8 banks.
func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "do not divide across 8 banks") {
			t.Errorf("4 sets on 8 banks: recovered %q, want the bank-division panic", msg)
		}
	}()
	New(Config{SizeBytes: 4 * 4 * 64, Ways: 4}, phys.T2())
}

// TestCheckMatchesNew: Check accepts what New builds and refuses, with
// New's panic message, every geometry New panics on.
func TestCheckMatchesNew(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{Config{SizeBytes: 4 << 20, Ways: 16}, ""},
		{Config{SizeBytes: 0, Ways: 16}, "impossible geometry"},
		{Config{SizeBytes: 4 << 20, Ways: 0}, "impossible geometry"},
		{Config{SizeBytes: 17 * 4 * 8 * 64, Ways: 17}, "16-way limit"},
		{Config{SizeBytes: 4 * 4 * 64, Ways: 4}, "do not divide across 8 banks"},
		{Config{SizeBytes: 3 * 8 * 16 * 64, Ways: 16}, "not a power of two"},
	} {
		err := Check(c.cfg, phys.T2())
		var panicked string
		func() {
			defer func() { panicked, _ = recover().(string) }()
			New(c.cfg, phys.T2())
		}()
		if c.want == "" {
			if err != nil || panicked != "" {
				t.Errorf("%+v: Check %v, New panicked %q; want both to accept", c.cfg, err, panicked)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) || panicked != err.Error() {
			t.Errorf("%+v: Check %v, New panicked %q; want both to report %q", c.cfg, err, panicked, c.want)
		}
	}
}

// countingMapping wraps the T2 bit layout behind a pure interface (it is
// not a phys.Interleave, so Resolve keeps the interface path), counting
// every Bank call so tests can assert how often the cache consults the
// mapping.
type countingMapping struct {
	bankCalls *int64
}

func (m countingMapping) Controller(a phys.Addr) int { return int(a>>7) & 3 }
func (m countingMapping) Bank(a phys.Addr) int       { *m.bankCalls++; return int(a>>6) & 7 }
func (m countingMapping) Controllers() int           { return 4 }
func (m countingMapping) Banks() int                 { return 8 }
func (m countingMapping) Period() int64              { return 512 }
func (m countingMapping) Name() string               { return "counting" }

// TestTagOverflowPanics: the tag store keeps 32 bits of tag. A line whose
// tag needs more misses even when a line with the same low 32 tag bits is
// cached, and committing it panics instead of storing a truncated tag that
// would alias that line.
func TestTagOverflowPanics(t *testing.T) {
	c := New(Config{SizeBytes: 4 << 20, Ways: 16}, phys.T2())
	far := phys.Addr(1) << (c.tagShift + 32) // tag 1<<32, low 32 bits zero
	c.Access(0, false)                       // tag 0, same bank and set
	p := c.ProbeLine(far)
	if p.Hit() {
		t.Fatal("a 33-bit tag hit the line whose tag is its low 32 bits")
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "does not fit the 32-bit tag store") {
			t.Errorf("Commit of a 33-bit tag: recovered %q, want the tag-overflow panic", msg)
		}
		if !c.Contains(0) || c.Stats().Misses != 1 {
			t.Errorf("the refused commit changed the cache: %+v", c.Stats())
		}
	}()
	c.Commit(p, true)
}

// TestOneBankComputationPerAccess pins the single-probe contract: an
// Access (and a ProbeLine+Commit pair) consults the mapping's Bank exactly
// once, never twice. Clean read misses only, so the reconstruct path (which
// legitimately probes candidate banks for hashed mappings) stays out of
// the count.
func TestOneBankComputationPerAccess(t *testing.T) {
	var calls int64
	c := New(small(), countingMapping{bankCalls: &calls})
	const n = 200
	for i := 0; i < n; i++ {
		c.Access(phys.Addr(i)*64, false)
	}
	if calls != n {
		t.Errorf("%d accesses made %d Bank computations, want exactly one each", n, calls)
	}

	calls = 0
	p := c.ProbeLine(0x12340)
	if calls != 1 {
		t.Fatalf("ProbeLine made %d Bank computations, want 1", calls)
	}
	c.Commit(p, false)
	if calls != 1 {
		t.Errorf("ProbeLine+Commit made %d Bank computations, want 1 total", calls)
	}
}

// TestProbeCommitMatchesAccess drives two identical caches with the same
// random access stream, one through Access and one through the split
// ProbeLine/Commit path, and requires identical results and state.
func TestProbeCommitMatchesAccess(t *testing.T) {
	f := func(raw []uint16, writes []bool) bool {
		a := New(small(), phys.T2())
		b := New(small(), phys.T2())
		n := len(raw)
		if len(writes) < n {
			n = len(writes)
		}
		for i := 0; i < n; i++ {
			addr := phys.Addr(raw[i]) * 64
			ra := a.Access(addr, writes[i])
			p := b.ProbeLine(addr)
			if p.Hit() != b.Contains(addr) {
				return false
			}
			rb := b.Commit(p, writes[i])
			if ra != rb {
				return false
			}
		}
		return a.Stats() == b.Stats()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAccessPathDoesNotAllocate is the allocation regression for the L2
// hot path: steady-state probes, hits, misses and dirty evictions must all
// be allocation-free.
func TestAccessPathDoesNotAllocate(t *testing.T) {
	c := New(small(), phys.T2())
	// Warm past the compulsory region so the measured loop sees hits,
	// misses and dirty writebacks.
	for i := 0; i < 4096; i++ {
		c.Access(phys.Addr(i)*64, i%3 == 0)
	}
	i := 0
	avg := testing.AllocsPerRun(2000, func() {
		addr := phys.Addr(i%6000) * 64
		p := c.ProbeLine(addr)
		c.Commit(p, i%2 == 0)
		i++
	})
	if avg != 0 {
		t.Errorf("access path allocates %.2f allocs/op, want 0", avg)
	}
}

// BenchmarkCommitFullSet measures the L2 layer on its own under the
// lattice-Boltzmann thrash pattern: 19 write streams (the D3Q19
// distributions) a power-of-two distance apart, so that line i of every
// stream falls into the same set of the full 16-way T2 L2. Every access is
// then a miss into a full set whose LRU victim is dirty. One op sweeps all
// 19 streams over every set; ns/access is the cost of one ProbeLine and
// Commit.
func BenchmarkCommitFullSet(b *testing.B) {
	const streams = 19
	m := phys.T2()
	c := New(Config{SizeBytes: 4 << 20, Ways: 16}, m)
	// Lines this far apart share bank and set: line offset, bank and set
	// index bits all lie below it.
	stride := phys.Addr(1) << c.tagShift
	slots := int(stride / phys.LineSize)
	sweep := func() {
		for i := 0; i < slots; i++ {
			line := phys.Addr(i) * phys.LineSize
			for s := 0; s < streams; s++ {
				c.Commit(c.ProbeLine(phys.Addr(s)*stride+line), true)
			}
		}
	}
	sweep() // fill every set with dirty lines
	c.ResetStats()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		sweep()
	}
	b.StopTimer()
	s := c.Stats()
	if accesses := int64(b.N) * int64(slots) * streams; s.Misses != accesses || s.Writebacks != accesses {
		b.Fatalf("%d accesses gave %+v, want every one a miss with a dirty victim", accesses, s)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*int64(slots)*streams), "ns/access")
}
