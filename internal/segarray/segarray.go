// Package segarray implements the paper's seg_array data structure
// (Sect. 2.2, Fig. 3): an array divided into segments, with four placement
// parameters that control where each segment lands relative to the memory
// controller interleave:
//
//	alignment — the whole allocation is aligned to a power-of-two boundary
//	            (posix_memalign semantics);
//	padding   — each segment is aligned to its own boundary (SegAlign);
//	shift     — segment s is displaced s*Shift bytes past its alignment
//	            boundary (modulo SegAlign), so successive segments are
//	            "shifted versus each other" and address different memory
//	            controllers, as required by the Jacobi experiment;
//	offset    — the whole data block is displaced by a final byte offset.
//
// The package provides both the placement computation (a Layout of
// simulated physical addresses, consumed by the machine model) and a real,
// generic, host-side container with segment iterators, used to reproduce
// the iterator-overhead comparison of Fig. 5 on the host.
package segarray

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/phys"
)

// Params are the placement parameters of Fig. 3.
type Params struct {
	ElemSize int64 // bytes per element (8 for double precision)
	Align    int64 // base alignment; 0 means plain malloc placement
	SegAlign int64 // per-segment alignment; 0 means segments are packed
	Shift    int64 // cumulative per-segment shift in bytes
	Offset   int64 // whole-block offset in bytes
}

// Segment is one placed segment.
type Segment struct {
	Start phys.Addr // address of the segment's first element
	Len   int64     // elements
}

// End returns the first byte past the segment's data.
func (s Segment) End(elemSize int64) phys.Addr {
	return s.Start + phys.Addr(s.Len*elemSize)
}

// Layout is the result of placing a segmented array in an address space.
type Layout struct {
	Params Params
	Base   phys.Addr // allocation base (before Offset is applied)
	Segs   []Segment
	Total  int64 // total elements across segments
	Extent int64 // bytes from Base to the end of the last segment
}

// Plan computes segment placements for the given segment lengths inside
// space. It performs the allocation (advancing the space's break) and
// returns the layout. Segment lengths must be non-negative.
func Plan(space *alloc.Space, p Params, segLens []int64) Layout {
	if p.ElemSize <= 0 {
		panic(fmt.Sprintf("segarray: element size %d", p.ElemSize))
	}
	rel := make([]int64, len(segLens))
	cursor := int64(0)
	var total int64
	for s, n := range segLens {
		if n < 0 {
			panic(fmt.Sprintf("segarray: negative segment length %d", n))
		}
		start := cursor
		if p.SegAlign > 0 {
			start = int64(phys.AlignUp(phys.Addr(start), p.SegAlign))
			start += (int64(s) * p.Shift) % p.SegAlign
		} else {
			start += int64(s) * p.Shift
		}
		rel[s] = start
		cursor = start + n*p.ElemSize
		total += n
	}
	extent := cursor

	var base phys.Addr
	if p.Align > 0 {
		base = space.Memalign(p.Align, extent+p.Offset)
	} else {
		base = space.Malloc(extent + p.Offset)
	}
	l := Layout{Params: p, Base: base, Total: total, Extent: extent + p.Offset}
	l.Segs = make([]Segment, len(segLens))
	for s, n := range segLens {
		l.Segs[s] = Segment{Start: base + phys.Addr(p.Offset+rel[s]), Len: n}
	}
	return l
}

// EqualSegments splits n elements into segs segments using the paper's
// manual schedule: the first n%segs segments get floor(n/segs)+1 elements,
// the rest floor(n/segs).
func EqualSegments(n int64, segs int) []int64 {
	if segs <= 0 {
		panic(fmt.Sprintf("segarray: %d segments", segs))
	}
	q := n / int64(segs)
	r := n % int64(segs)
	out := make([]int64, segs)
	for i := range out {
		out[i] = q
		if int64(i) < r {
			out[i]++
		}
	}
	return out
}

// SegAddr returns the address of element i of segment s.
func (l *Layout) SegAddr(s int, i int64) phys.Addr {
	return l.Segs[s].Start + phys.Addr(i*l.Params.ElemSize)
}

// Overlaps reports whether any two segments overlap — a placement bug.
func (l *Layout) Overlaps() bool {
	for a := range l.Segs {
		for b := a + 1; b < len(l.Segs); b++ {
			sa, sb := l.Segs[a], l.Segs[b]
			if sa.Start < sb.End(l.Params.ElemSize) && sb.Start < sa.End(l.Params.ElemSize) {
				if sa.Len > 0 && sb.Len > 0 {
					return true
				}
			}
		}
	}
	return false
}
