package kernels

import (
	"repro/internal/phys"
	"repro/internal/segarray"
	"repro/internal/trace"
)

// segStreamGen is the segmented kernel's former dedicated generator, kept
// as the test-only reference that FuzzSegStream compares the Stream-based
// SegStream.Program against. It walks segment t of every array with a
// local index, one destination line per item, and restarts its line
// trackers at every sweep.
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

// refSegProgram builds the reference generators, one per segment.
func refSegProgram(k *SegStream, threads int) []trace.Generator {
	sweeps := k.Sweeps
	if sweeps < 1 {
		sweeps = 1
	}
	gens := make([]trace.Generator, threads)
	for t := range gens {
		gens[t] = &segStreamGen{k: k, thread: t, sweeps: sweeps,
			readTr: make([]trace.LineTracker, len(k.Reads))}
	}
	return gens
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
