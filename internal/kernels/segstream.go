package kernels

import (
	"fmt"
	"slices"

	"repro/internal/cpu"
	"repro/internal/omp"
	"repro/internal/phys"
	"repro/internal/segarray"
	"repro/internal/trace"
)

// SegStream is a streaming kernel over segmented arrays with the paper's
// manual scheduling: the number of segments equals the number of threads
// and thread t processes segment t of every array (Sect. 2.2). Because
// each segment's base address is individually placeable, this is the form
// in which alignment, padding, shift and offset take effect per thread —
// page-aligning all segments locks every thread to the same controller
// phase (the Fig. 4 worst case), per-array offsets spread them (the Fig. 4
// optimum). The loop itself is the plain one: Program runs the Stream
// generator under omp.StaticBlock, whose split is the segments' own, with
// each thread's bases moved to its segments.
type SegStream struct {
	Name     string
	Reads    []*segarray.Layout
	Write    *segarray.Layout // nil for load-only kernels
	PerElem  cpu.Demand
	RepPerEl int64
	// SegOverhead charges extra integer operations at each segment entry —
	// the segmented-iterator dispatch cost measured in Fig. 5.
	SegOverhead int64
	Sweeps      int
}

// SegVTriad builds the segmented vector triad a = b + c*d.
func SegVTriad(a, b, c, d *segarray.Layout) SegStream {
	v := VTriad(0, 0, 0, 0, 0)
	return SegStream{Name: "segvtriad", Reads: []*segarray.Layout{b, c, d}, Write: a,
		PerElem: v.PerElem, RepPerEl: v.RepPerEl}
}

// SegTriad builds the segmented STREAM triad a = b + s*c.
func SegTriad(a, b, c *segarray.Layout) SegStream {
	v := StreamTriad(0, 0, 0, 0)
	return SegStream{Name: "segtriad", Reads: []*segarray.Layout{b, c}, Write: a,
		PerElem: v.PerElem, RepPerEl: v.RepPerEl}
}

// Program compiles the kernel. The team size must equal the segment count,
// every array must hold the same element count split like
// segarray.EqualSegments, and all must share one element size. A thread
// whose segment is empty issues nothing.
func (k *SegStream) Program(threads int) *trace.Program {
	ls := k.Reads
	if k.Write != nil {
		ls = append(slices.Clip(ls), k.Write)
	}
	n, es := ls[0].Total, ls[0].Params.ElemSize
	split := segarray.EqualSegments(n, threads)
	for _, l := range ls {
		if len(l.Segs) != threads {
			panic(fmt.Sprintf("kernels: %d segments for %d threads", len(l.Segs), threads))
		}
		if l.Params.ElemSize != es {
			panic(fmt.Sprintf("kernels: segmented arrays of %d- and %d-byte elements", es, l.Params.ElemSize))
		}
		for t, sg := range l.Segs {
			if sg.Len != split[t] {
				panic(fmt.Sprintf("kernels: segment %d holds %d elements, the static split %d", t, sg.Len, split[t]))
			}
		}
	}
	s := Stream{
		Name: k.Name, ReadBases: make([]phys.Addr, len(k.Reads)), HasWrite: k.Write != nil,
		N: n, ElemSize: es, PerElem: k.PerElem, RepPerEl: k.RepPerEl,
		SegOverhead: k.SegOverhead, Sweeps: k.Sweeps,
	}
	p := s.Program(omp.StaticBlock{}, threads)
	p.Label = fmt.Sprintf("%s/segmented/t=%d", k.Name, threads)
	// Thread t's first iteration is lo, the elements of the segments
	// before its own; shift its bases so that lo lands on its segment.
	var lo int64
	for t, g := range p.Gens {
		b := g.(*streamGen).bases
		for r, l := range ls {
			b[r] = l.Segs[t].Start - phys.Addr(lo*es)
		}
		lo += split[t]
	}
	return p
}
