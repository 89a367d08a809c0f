package segarray

import (
	"testing"
	"testing/quick"

	"repro/internal/alloc"
	"repro/internal/phys"
)

func TestPlanJacobiPlacement(t *testing.T) {
	// The Sect. 2.3 recipe: rows aligned to 512 bytes, shift 128: row i
	// must start at phase (128*i) mod 512.
	sp := alloc.NewSpace()
	rows := make([]int64, 8)
	for i := range rows {
		rows[i] = 1000
	}
	l := Plan(sp, Params{ElemSize: 8, Align: phys.PageSize, SegAlign: 512, Shift: 128}, rows)
	for i, s := range l.Segs {
		want := phys.Addr(128*i) % 512
		if s.Start%512 != want {
			t.Errorf("row %d phase %d, want %d", i, s.Start%512, want)
		}
	}
	if l.Overlaps() {
		t.Error("rows overlap")
	}
}

func TestPlanOffsetsWholeBlock(t *testing.T) {
	sp := alloc.NewSpace()
	l := Plan(sp, Params{ElemSize: 8, Align: phys.PageSize, Offset: 384}, []int64{100})
	if l.Segs[0].Start%phys.PageSize != 384 {
		t.Errorf("offset segment phase %d, want 384", l.Segs[0].Start%phys.PageSize)
	}
}

func TestPlanPackedWhenUnconfigured(t *testing.T) {
	sp := alloc.NewSpace()
	l := Plan(sp, Params{ElemSize: 8}, []int64{10, 20, 30})
	for i := 1; i < 3; i++ {
		if l.Segs[i].Start != l.Segs[i-1].End(8) {
			t.Errorf("segment %d not packed: %#x after %#x", i, l.Segs[i].Start, l.Segs[i-1].End(8))
		}
	}
}

func TestPlanInvariantsProperty(t *testing.T) {
	f := func(lens8 []uint8, alignE, segAlignE, shiftE uint8) bool {
		if len(lens8) == 0 || len(lens8) > 32 {
			return true
		}
		lens := make([]int64, len(lens8))
		var total int64
		for i, l := range lens8 {
			lens[i] = int64(l)
			total += int64(l)
		}
		p := Params{
			ElemSize: 8,
			Align:    int64(64) << (alignE % 6),
			SegAlign: int64(64) << (segAlignE % 6),
			Shift:    int64(shiftE%8) * 16,
		}
		sp := alloc.NewSpace()
		l := Plan(sp, p, lens)
		if l.Total != total || len(l.Segs) != len(lens) {
			return false
		}
		if l.Overlaps() {
			return false
		}
		// Segments stay in allocation order.
		for i := 1; i < len(l.Segs); i++ {
			if l.Segs[i].Start < l.Segs[i-1].End(8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEqualSegments(t *testing.T) {
	segs := EqualSegments(10, 4)
	want := []int64{3, 3, 2, 2}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("EqualSegments(10,4) = %v", segs)
		}
	}
	var sum int64
	for _, s := range EqualSegments(1<<20+7, 64) {
		sum += s
	}
	if sum != 1<<20+7 {
		t.Errorf("EqualSegments sums to %d", sum)
	}
}

func TestArrayHostStorage(t *testing.T) {
	sp := alloc.NewSpace()
	l := Plan(sp, Params{ElemSize: 8, SegAlign: 512, Shift: 128}, []int64{4, 6, 2})
	a := NewArray[float64](l)
	for s, seg := range l.Segs {
		if got := int64(len(a.Segment(s))); got != seg.Len {
			t.Fatalf("segment %d holds %d elements, layout says %d", s, got, seg.Len)
		}
	}
	a.Segment(1)[3] = 42
	it := a.Begin()
	for i := 0; i < 4+3; i++ {
		it.Next()
	}
	if *it.Value() != 42 {
		t.Error("iterator and Segment disagree on global element 7")
	}
}

func TestIteratorVisitsAllInOrder(t *testing.T) {
	sp := alloc.NewSpace()
	l := Plan(sp, Params{ElemSize: 8}, []int64{3, 0, 2, 0, 1})
	a := NewArray[int](l)
	n := 0
	for s := range l.Segs {
		for i := range a.Segment(s) {
			a.Segment(s)[i] = n
			n++
		}
	}
	var got []int
	for it := a.Begin(); it.Valid(); it.Next() {
		got = append(got, *it.Value())
	}
	if len(got) != 6 {
		t.Fatalf("iterator visited %d elements, want 6", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("iteration order %v", got)
		}
	}
}

func TestIteratorProperty(t *testing.T) {
	f := func(lens8 []uint8) bool {
		if len(lens8) > 16 {
			return true
		}
		lens := make([]int64, len(lens8))
		var total int64
		for i, l := range lens8 {
			lens[i] = int64(l % 32)
			total += lens[i]
		}
		sp := alloc.NewSpace()
		a := NewArray[int](Plan(sp, Params{ElemSize: 8}, lens))
		count := int64(0)
		for it := a.Begin(); it.Valid(); it.Next() {
			count++
		}
		return count == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
