package kernels

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/alloc"
	"repro/internal/omp"
	"repro/internal/phys"
	"repro/internal/segarray"
	"repro/internal/trace"
)

// ---- host kernels -----------------------------------------------------------

func TestHostKernels(t *testing.T) {
	n := 100
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		b[i] = float64(i)
		c[i] = 2
		d[i] = float64(i) + 1
	}
	Copy(a, b)
	if a[7] != 7 {
		t.Error("copy")
	}
	Scale(a, c, 3)
	if a[7] != 6 {
		t.Error("scale")
	}
	Add(a, b, c)
	if a[7] != 9 {
		t.Error("add")
	}
	Triad(a, b, c, 3)
	if a[7] != 13 {
		t.Error("triad")
	}
	VectorTriad(a, b, c, d)
	if a[7] != 7+2*8 {
		t.Error("vector triad")
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	f := func(seed uint8, threads8 uint8) bool {
		n := int(seed)*7 + 100
		threads := int(threads8%8) + 1
		a1 := make([]float64, n)
		a2 := make([]float64, n)
		b := make([]float64, n)
		c := make([]float64, n)
		for i := range b {
			b[i] = float64(i % 13)
			c[i] = float64(i % 7)
		}
		Triad(a1, b, c, 2.5)
		Parallel(n, threads, func(lo, hi int) {
			Triad(a2[lo:hi], b[lo:hi], c[lo:hi], 2.5)
		})
		for i := range a1 {
			if math.Abs(a1[i]-a2[i]) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// ---- trace generators --------------------------------------------------------

// collect drains a program and returns all accesses per thread.
func collect(p *trace.Program) [][]trace.Access {
	out := make([][]trace.Access, len(p.Gens))
	for t, g := range p.Gens {
		var it trace.Item
		for {
			it.Reset()
			if !g.Next(&it) {
				break
			}
			out[t] = append(out[t], append([]trace.Access(nil), it.Acc...)...)
		}
	}
	return out
}

func TestStreamGenCoversAllLines(t *testing.T) {
	n := int64(1024)
	base := phys.Addr(0x10000)
	k := StreamCopy(base+phys.Addr(n*8), base, n)
	acc := collect(k.Program(omp.StaticBlock{}, 4))
	reads := map[phys.Addr]int{}
	writes := map[phys.Addr]int{}
	for _, th := range acc {
		for _, a := range th {
			if a.Write {
				writes[a.Addr]++
			} else {
				reads[a.Addr]++
			}
		}
	}
	wantLines := int(n * 8 / phys.LineSize)
	if len(reads) != wantLines || len(writes) != wantLines {
		t.Fatalf("lines read %d written %d, want %d", len(reads), len(writes), wantLines)
	}
	for l, c := range reads {
		if c != 1 {
			t.Fatalf("line %#x read %d times", l, c)
		}
	}
}

func TestStreamGenMisalignedBase(t *testing.T) {
	// A base offset that is not line-aligned must still cover every line
	// exactly once, including the extra partial lines at the edges.
	n := int64(512)
	base := phys.Addr(0x10000) + 104
	k := LoadSum([]phys.Addr{base}, n)
	acc := collect(k.Program(omp.StaticBlock{}, 1))
	lines := map[phys.Addr]bool{}
	for _, a := range acc[0] {
		lines[a.Addr] = true
	}
	first := phys.LineOf(base)
	last := phys.LineOf(base + phys.Addr((n-1)*8))
	want := int((last-first)/phys.LineSize) + 1
	if len(lines) != want {
		t.Errorf("covered %d lines, want %d", len(lines), want)
	}
}

func TestStreamGenUnitsAndBytes(t *testing.T) {
	n := int64(4096)
	k := StreamTriad(0x20000, 0x40000, 0x60000, n)
	k.Sweeps = 2
	p := k.Program(omp.StaticBlock{}, 8)
	var units, rep int64
	var it trace.Item
	for _, g := range p.Gens {
		for {
			it.Reset()
			if !g.Next(&it) {
				break
			}
			units += it.Units
			rep += it.RepBytes
		}
	}
	if units != 2*n {
		t.Errorf("units %d, want %d", units, 2*n)
	}
	if rep != 2*n*24 {
		t.Errorf("reported bytes %d, want %d", rep, 2*n*24)
	}
}

func TestSegStreamMatchesLayout(t *testing.T) {
	sp := alloc.NewSpace()
	threads := 4
	segLens := segarray.EqualSegments(1000, threads)
	mk := func(off int64) *segarray.Layout {
		l := segarray.Plan(sp, segarray.Params{
			ElemSize: 8, Align: phys.PageSize, SegAlign: phys.PageSize, Offset: off,
		}, segLens)
		return &l
	}
	a, b, c, d := mk(0), mk(128), mk(256), mk(384)
	k := SegVTriad(a, b, c, d)
	p := k.Program(threads)
	acc := collect(p)
	// Every thread's first read must be the first line of segment t of b.
	for th := range acc {
		if len(acc[th]) == 0 {
			t.Fatalf("thread %d produced no accesses", th)
		}
		want := phys.LineOf(b.Segs[th].Start)
		if acc[th][0].Addr != want {
			t.Errorf("thread %d first access %#x, want %#x", th, acc[th][0].Addr, want)
		}
	}
	// Total write lines = lines of a's segments.
	writes := map[phys.Addr]bool{}
	for _, th := range acc {
		for _, x := range th {
			if x.Write {
				writes[x.Addr] = true
			}
		}
	}
	var want int
	for s := range a.Segs {
		first := phys.LineOf(a.Segs[s].Start)
		last := phys.LineOf(a.SegAddr(s, a.Segs[s].Len-1))
		want += int((last-first)/phys.LineSize) + 1
	}
	if len(writes) != want {
		t.Errorf("write lines %d, want %d", len(writes), want)
	}
}

func TestSegStreamThreadMismatchPanics(t *testing.T) {
	sp := alloc.NewSpace()
	l := segarray.Plan(sp, segarray.Params{ElemSize: 8}, segarray.EqualSegments(100, 4))
	k := SegVTriad(&l, &l, &l, &l)
	defer func() {
		if recover() == nil {
			t.Error("segment/thread mismatch did not panic")
		}
	}()
	k.Program(8)
}

func TestStreamsCount(t *testing.T) {
	k := VTriad(0, 1<<20, 2<<20, 3<<20, 100)
	if k.Streams() != 4 {
		t.Errorf("vtriad streams %d", k.Streams())
	}
	l := LoadSum([]phys.Addr{0, 1 << 20}, 100)
	if l.Streams() != 2 {
		t.Errorf("loadsum streams %d", l.Streams())
	}
}

// items drains a generator into a flat item list (deep copies).
func items(g trace.Generator) []trace.Item {
	var out []trace.Item
	var it trace.Item
	for {
		it.Reset()
		if !g.Next(&it) {
			return out
		}
		cp := trace.Item{
			Acc:      append([]trace.Access(nil), it.Acc...),
			Demand:   it.Demand,
			Units:    it.Units,
			RepBytes: it.RepBytes,
		}
		out = append(out, cp)
	}
}

// TestProgramIntoRecyclesBuffers pins the scratch-pool contract: rebuilding
// a program into a previous one must reuse the generator records and
// produce exactly the item stream of a freshly built program.
func TestProgramIntoRecyclesBuffers(t *testing.T) {
	build := func(prev *trace.Program, off int64) *trace.Program {
		sp := alloc.NewSpace()
		const n = 1 << 12
		bases := sp.Common(3, n+off, phys.WordSize)
		k := StreamTriad(bases[0], bases[1], bases[2], n)
		return k.ProgramInto(prev, omp.StaticBlock{}, 8)
	}
	scratch := build(nil, 0)
	// Consume part of the program, then rebuild with a different offset.
	var it trace.Item
	for i := 0; i < 100; i++ {
		it.Reset()
		scratch.Gens[3].Next(&it)
	}
	recycled := build(scratch, 24)
	if recycled != scratch {
		t.Fatal("ProgramInto did not recycle the shape-compatible program")
	}
	fresh := build(nil, 24)
	for g := range fresh.Gens {
		got := items(recycled.Gens[g])
		want := items(fresh.Gens[g])
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("recycled generator %d produced a different item stream", g)
		}
	}
	if fresh.Label != recycled.Label {
		t.Errorf("labels differ: %q vs %q", recycled.Label, fresh.Label)
	}
}
