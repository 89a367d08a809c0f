package kernels

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/omp"
	"repro/internal/phys"
	"repro/internal/trace"
)

// Stream is a simulated streaming kernel: a set of unit-stride read
// streams, at most one write stream, all traversed with a common index over
// [0, N). It covers the four STREAM kernels, the vector triad, and the
// load-only kernels of [4].
type Stream struct {
	Name      string
	ReadBases []phys.Addr
	WriteBase phys.Addr
	HasWrite  bool
	N         int64
	ElemSize  int64
	PerElem   cpu.Demand // demand per element
	RepPerEl  int64      // benchmark-reported bytes per element
	// SegOverhead, if positive, adds this many integer ops at every chunk
	// entry — the loop-setup cost of a segmented iterator (Fig. 5).
	SegOverhead int64
	// Sweeps is the number of passes over the arrays (STREAM's ntimes);
	// values < 1 mean one pass. More than one pass brings writeback
	// traffic to steady state.
	Sweeps int
}

// StreamCopy builds the STREAM copy kernel c = a.
func StreamCopy(c, a phys.Addr, n int64) Stream {
	return Stream{
		Name: "copy", ReadBases: []phys.Addr{a}, WriteBase: c, HasWrite: true,
		N: n, ElemSize: phys.WordSize,
		PerElem: cpu.Demand{MemOps: 2, IntOps: 1}, RepPerEl: 16,
	}
}

// StreamScale builds the STREAM scale kernel b = s*c.
func StreamScale(b, c phys.Addr, n int64) Stream {
	return Stream{
		Name: "scale", ReadBases: []phys.Addr{c}, WriteBase: b, HasWrite: true,
		N: n, ElemSize: phys.WordSize,
		PerElem: cpu.Demand{MemOps: 2, Flops: 1, IntOps: 1}, RepPerEl: 16,
	}
}

// StreamAdd builds the STREAM add kernel c = a + b.
func StreamAdd(c, a, b phys.Addr, n int64) Stream {
	return Stream{
		Name: "add", ReadBases: []phys.Addr{a, b}, WriteBase: c, HasWrite: true,
		N: n, ElemSize: phys.WordSize,
		PerElem: cpu.Demand{MemOps: 3, Flops: 1, IntOps: 1}, RepPerEl: 24,
	}
}

// StreamTriad builds the STREAM triad kernel a = b + s*c.
func StreamTriad(a, b, c phys.Addr, n int64) Stream {
	return Stream{
		Name: "triad", ReadBases: []phys.Addr{b, c}, WriteBase: a, HasWrite: true,
		N: n, ElemSize: phys.WordSize,
		PerElem: cpu.Demand{MemOps: 3, Flops: 2, IntOps: 1}, RepPerEl: 24,
	}
}

// VTriad builds the Schönauer vector triad a = b + c*d (three read
// streams, Sect. 2.2).
func VTriad(a, b, c, d phys.Addr, n int64) Stream {
	return Stream{
		Name: "vtriad", ReadBases: []phys.Addr{b, c, d}, WriteBase: a, HasWrite: true,
		N: n, ElemSize: phys.WordSize,
		PerElem: cpu.Demand{MemOps: 4, Flops: 2, IntOps: 1}, RepPerEl: 32,
	}
}

// LoadSum builds a load-only reduction over the given streams — the
// "almost exclusively dominated by loads" kernel class of [4] that avoids
// the bidirectional-transfer overhead.
func LoadSum(bases []phys.Addr, n int64) Stream {
	return Stream{
		Name: "loadsum", ReadBases: bases,
		N: n, ElemSize: phys.WordSize,
		PerElem:  cpu.Demand{MemOps: int64(len(bases)), Flops: int64(len(bases)), IntOps: 1},
		RepPerEl: int64(len(bases)) * 8,
	}
}

// Streams returns the number of concurrent streams (reads plus write).
func (k *Stream) Streams() int {
	n := len(k.ReadBases)
	if k.HasWrite {
		n++
	}
	return n
}

// Program compiles the kernel into a per-thread work-item program under the
// given schedule and team size.
func (k *Stream) Program(sched omp.Schedule, threads int) *trace.Program {
	return k.ProgramInto(nil, sched, threads)
}

// ProgramInto compiles the kernel like Program, but recycles the program,
// generator and tracker buffers of prev — a program previously built by
// this method (or Program) for the same thread count and stream shape.
// Sweep harnesses hand the same scratch program to every point of an
// offset sweep, turning per-point program construction into a handful of
// field writes. A nil or shape-incompatible prev falls back to fresh
// allocation. The kernel value is copied, so the caller may mutate k
// afterwards without disturbing the compiled program.
func (k *Stream) ProgramInto(prev *trace.Program, sched omp.Schedule, threads int) *trace.Program {
	if threads <= 0 {
		panic(fmt.Sprintf("kernels: %d threads", threads))
	}
	sweeps := k.Sweeps
	if sweeps < 1 {
		sweeps = 1
	}
	p := prev
	reuse := p != nil && len(p.Gens) == threads
	if reuse {
		for _, g := range p.Gens {
			sg, ok := g.(*streamGen)
			if !ok || len(sg.readTr) != len(k.ReadBases) || len(sg.asns) != sweeps {
				reuse = false
				break
			}
		}
	}
	if !reuse {
		shared := make([]omp.Assigner, sweeps)
		p = &trace.Program{Gens: make([]trace.Generator, 0, threads)}
		for t := 0; t < threads; t++ {
			p.Gens = append(p.Gens, &streamGen{
				asns:   shared,
				readTr: make([]trace.LineTracker, len(k.ReadBases)),
			})
		}
	}
	kc := *k
	// One shared assigner per sweep so that self-scheduling policies keep
	// their work-queue semantics across the team.
	asns := p.Gens[0].(*streamGen).asns
	for s := range asns {
		asns[s] = sched.Assigner(kc.N, threads)
	}
	p.Label = fmt.Sprintf("%s/N=%d/%s/t=%d", kc.Name, kc.N, sched.String(), threads)
	p.WarmLines = 0
	for t := 0; t < threads; t++ {
		g := p.Gens[t].(*streamGen)
		tr := g.readTr
		for i := range tr {
			tr[i].Reset()
		}
		*g = streamGen{k: &kc, asns: asns, thread: t, readTr: tr}
	}
	return p
}

// streamGen yields work items of up to one destination line (eight
// double-precision elements) per call.
type streamGen struct {
	k       *Stream
	asns    []omp.Assigner // one per sweep
	sweep   int
	thread  int
	cur     omp.Chunk
	has     bool
	i       int64
	fresh   bool // new chunk: reset line trackers, charge SegOverhead
	readTr  []trace.LineTracker
	writeTr trace.LineTracker
}

func (g *streamGen) Next(it *trace.Item) bool {
	for !g.has {
		if g.sweep >= len(g.asns) {
			return false
		}
		c, ok := g.asns[g.sweep].Next(g.thread)
		if !ok {
			g.sweep++
			continue
		}
		g.cur, g.has, g.i, g.fresh = c, true, c.Lo, true
		for r := range g.readTr {
			g.readTr[r].Reset()
		}
		g.writeTr.Reset()
	}
	block := int64(phys.LineSize) / g.k.ElemSize
	e := g.i + block
	if e > g.cur.Hi {
		e = g.cur.Hi
	}
	elems := e - g.i

	emit := func(base phys.Addr, tr *trace.LineTracker, write bool) {
		first := phys.LineOf(base + phys.Addr(g.i*g.k.ElemSize))
		last := phys.LineOf(base + phys.Addr((e-1)*g.k.ElemSize))
		for l := first; l <= last; l += phys.LineSize {
			if tr.Touch(l) {
				it.Acc = append(it.Acc, trace.Access{Addr: l, Write: write})
			}
		}
	}
	for r := range g.k.ReadBases {
		emit(g.k.ReadBases[r], &g.readTr[r], false)
	}
	if g.k.HasWrite {
		emit(g.k.WriteBase, &g.writeTr, true)
	}

	it.Demand = g.k.PerElem.Scale(elems)
	if g.fresh && g.k.SegOverhead > 0 {
		it.Demand.IntOps += g.k.SegOverhead
	}
	g.fresh = false
	it.Units = elems
	it.RepBytes = g.k.RepPerEl * elems

	g.i = e
	if g.i >= g.cur.Hi {
		g.has = false
	}
	return true
}
