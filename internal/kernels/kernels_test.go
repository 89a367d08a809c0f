package kernels

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/alloc"
	"repro/internal/cpu"
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
	VectorTriad(a, b, c, d)
	if a[7] != 7+2*8 {
		t.Error("vector triad")
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

// segLayouts places arrays of n elements split into threads segments:
// packed, or page-aligned per segment with a 64-byte shift, each displaced
// by its own byte offset.
func segLayouts(n int64, threads int, paged bool, offs ...int64) []*segarray.Layout {
	sp := alloc.NewSpace()
	out := make([]*segarray.Layout, len(offs))
	for i, off := range offs {
		p := segarray.Params{ElemSize: 8, Offset: off}
		if paged {
			p.Align, p.SegAlign, p.Shift = phys.PageSize, phys.PageSize, 64
		}
		l := segarray.Plan(sp, p, segarray.EqualSegments(n, threads))
		out[i] = &l
	}
	return out
}

// FuzzSegStream checks that SegStream.Program, which runs the Stream
// generator with per-thread bases, yields for every thread exactly the
// items of the dedicated segmented generator it replaced
// (segstream_ref_test.go): same accesses, demand, units and bytes, over
// team sizes, per-array offsets, placements, sweeps, the segment-entry
// overhead and a load-only kernel.
func FuzzSegStream(f *testing.F) {
	f.Add(uint8(8), uint16(1000), uint16(0), uint16(128), uint16(256), uint16(384), true, uint8(1), false, uint8(0))
	f.Add(uint8(5), uint16(37), uint16(8), uint16(24), uint16(3), uint16(64), false, uint8(3), true, uint8(1))
	f.Add(uint8(16), uint16(0), uint16(104), uint16(0), uint16(0), uint16(512), true, uint8(2), true, uint8(2))
	f.Add(uint8(1), uint16(7), uint16(1), uint16(63), uint16(65), uint16(4095), false, uint8(2), false, uint8(2))
	f.Fuzz(func(t *testing.T, th uint8, extra, o0, o1, o2, o3 uint16, paged bool, sweeps uint8, overhead bool, kind uint8) {
		threads := 1 + int(th%24)
		n := int64(threads) + int64(extra%3000)
		ls := segLayouts(n, threads, paged, int64(o0), int64(o1), int64(o2), int64(o3))
		var k SegStream
		switch kind % 3 {
		case 0:
			k = SegVTriad(ls[0], ls[1], ls[2], ls[3])
		case 1:
			k = SegTriad(ls[0], ls[1], ls[2])
		default:
			k = SegStream{Name: "segload", Reads: ls[:2],
				PerElem: cpu.Demand{MemOps: 2, Flops: 2, IntOps: 1}, RepPerEl: 16}
		}
		k.Sweeps = int(sweeps % 4)
		if overhead {
			k.SegOverhead = 30
		}
		got := k.Program(threads)
		want := refSegProgram(&k, threads)
		for g := range want {
			if a, b := items(got.Gens[g]), items(want[g]); !reflect.DeepEqual(a, b) {
				t.Fatalf("thread %d of %d (n=%d): %d items, reference %d; first difference %v",
					g, threads, n, len(a), len(b), firstDiff(a, b))
			}
		}
	})
}

// firstDiff describes the first item at which two item lists differ.
func firstDiff(a, b []trace.Item) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if !reflect.DeepEqual(a[i], b[i]) {
			return fmt.Sprintf("item %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	return "in length"
}

// TestSegStreamEmptySegmentIssuesNothing: with fewer elements than
// threads, the threads past the last element own empty segments and, like
// a Stream thread with an empty chunk, issue no item — not even a
// zero-unit one that reads the lines under misaligned segment starts.
func TestSegStreamEmptySegmentIssuesNothing(t *testing.T) {
	const n, threads = 5, 8
	ls := segLayouts(n, threads, true, 8, 24, 40, 56)
	k := SegVTriad(ls[0], ls[1], ls[2], ls[3])
	p := k.Program(threads)
	for g, gen := range p.Gens {
		its := items(gen)
		if g < n && len(its) != 1 {
			t.Errorf("thread %d: %d items, want 1", g, len(its))
		}
		if g >= n && len(its) != 0 {
			t.Errorf("thread %d owns an empty segment but issued %d items: %+v", g, len(its), its)
		}
	}
}

// TestSegStreamUnevenSplitPanics: segments that are not the static
// floor/ceil split cannot run as one static loop, so Program refuses them.
func TestSegStreamUnevenSplitPanics(t *testing.T) {
	sp := alloc.NewSpace()
	l := segarray.Plan(sp, segarray.Params{ElemSize: 8}, []int64{3, 3, 3, 1})
	k := SegVTriad(&l, &l, &l, &l)
	defer func() {
		if recover() == nil {
			t.Error("segments 3,3,3,1 did not panic (static split is 3,3,2,2)")
		}
	}()
	k.Program(4)
}

// TestStreamsCount: a line-aligned item touches one line of every
// stream, so the vector triad's first item reads three lines and writes
// one, and a two-stream load sum's reads two.
func TestStreamsCount(t *testing.T) {
	cases := []struct {
		k             Stream
		reads, writes int
	}{
		{VTriad(0, 1<<20, 2<<20, 3<<20, 100), 3, 1},
		{LoadSum([]phys.Addr{0, 1 << 20}, 100), 2, 0},
	}
	for _, c := range cases {
		var reads, writes int
		for _, a := range items(c.k.Program(omp.StaticBlock{}, 1).Gens[0])[0].Acc {
			if a.Write {
				writes++
			} else {
				reads++
			}
		}
		if reads != c.reads || writes != c.writes {
			t.Errorf("%s: first item reads %d and writes %d lines, want %d and %d", c.k.Name, reads, writes, c.reads, c.writes)
		}
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
