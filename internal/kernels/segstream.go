package kernels

import (
	"fmt"

	"repro/internal/cpu"
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
// optimum).
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
	return SegStream{
		Name:     "segvtriad",
		Reads:    []*segarray.Layout{b, c, d},
		Write:    a,
		PerElem:  cpu.Demand{MemOps: 4, Flops: 2, IntOps: 1},
		RepPerEl: 32,
	}
}

// SegTriad builds the segmented STREAM triad a = b + s*c.
func SegTriad(a, b, c *segarray.Layout) SegStream {
	return SegStream{
		Name:     "segtriad",
		Reads:    []*segarray.Layout{b, c},
		Write:    a,
		PerElem:  cpu.Demand{MemOps: 3, Flops: 2, IntOps: 1},
		RepPerEl: 24,
	}
}

// Program compiles the kernel; the team size must equal the segment count.
func (k *SegStream) Program(threads int) *trace.Program {
	check := func(l *segarray.Layout) {
		if len(l.Segs) != threads {
			panic(fmt.Sprintf("kernels: %d segments for %d threads", len(l.Segs), threads))
		}
	}
	for _, l := range k.Reads {
		check(l)
	}
	if k.Write != nil {
		check(k.Write)
	}
	sweeps := k.Sweeps
	if sweeps < 1 {
		sweeps = 1
	}
	p := &trace.Program{Label: fmt.Sprintf("%s/%s/t=%d", k.Name, "segmented", threads)}
	for t := 0; t < threads; t++ {
		p.Gens = append(p.Gens, &segStreamGen{k: k, thread: t, sweeps: sweeps,
			readTr: make([]trace.LineTracker, len(k.Reads))})
	}
	return p
}

type segStreamGen struct {
	k       *SegStream
	thread  int
	sweeps  int
	sweep   int
	i       int64
	started bool
	fresh   bool
	readTr  []trace.LineTracker
	writeTr trace.LineTracker
}

func (g *segStreamGen) segLen() int64 {
	if g.k.Write != nil {
		return g.k.Write.Segs[g.thread].Len
	}
	return g.k.Reads[0].Segs[g.thread].Len
}

func (g *segStreamGen) Next(it *trace.Item) bool {
	n := g.segLen()
	if !g.started || g.i >= n {
		if g.started {
			g.sweep++
		}
		if g.sweep >= g.sweeps {
			return false
		}
		g.started = true
		g.i = 0
		g.fresh = true
		for r := range g.readTr {
			g.readTr[r].Reset()
		}
		g.writeTr.Reset()
	}
	block := int64(phys.LineSize) / g.k.Reads[0].Params.ElemSize
	e := g.i + block
	if e > n {
		e = n
	}
	elems := e - g.i

	emit := func(l *segarray.Layout, tr *trace.LineTracker, write bool) {
		first := phys.LineOf(l.SegAddr(g.thread, g.i))
		last := phys.LineOf(l.SegAddr(g.thread, e-1))
		for a := first; a <= last; a += phys.LineSize {
			if tr.Touch(a) {
				it.Acc = append(it.Acc, trace.Access{Addr: a, Write: write})
			}
		}
	}
	for r := range g.k.Reads {
		emit(g.k.Reads[r], &g.readTr[r], false)
	}
	if g.k.Write != nil {
		emit(g.k.Write, &g.writeTr, true)
	}

	it.Demand = g.k.PerElem.Scale(elems)
	if g.fresh && g.k.SegOverhead > 0 {
		it.Demand.IntOps += g.k.SegOverhead
		g.fresh = false
	}
	it.Units = elems
	it.RepBytes = g.k.RepPerEl * elems
	g.i = e
	return true
}
