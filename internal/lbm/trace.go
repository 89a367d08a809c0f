package lbm

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/omp"
	"repro/internal/phys"
	"repro/internal/trace"
)

// Instruction demand of one lattice-site update. The paper gives the code
// balance of its kernel as ~2.5 bytes/flop at 456 bytes of traffic per
// site, i.e. ~182 floating-point operations; the 1/rho division occupies
// the non-pipelined FP divider for ~34 extra cycles on a SPARC core, and
// the 19-stream address arithmetic plus the fluid-cell test cost ~40
// integer operations.
const (
	flopsPerSite  = 182
	divCycles     = 34
	intOpsPerSite = 40
	memOpsPerSite = 2 * Q // 19 loads + 19 stores
	// repBytesPerSite is the traffic the benchmark itself accounts per
	// site update: 19 reads + 19 writes of 8 bytes (RFO excluded, as in
	// STREAM's counting convention).
	repBytesPerSite = 16 * Q
)

var perSite = cpu.Demand{MemOps: memOpsPerSite, Flops: flopsPerSite + divCycles, IntOps: intOpsPerSite}

// TraceSpec describes one simulated LBM run of Fig. 7.
type TraceSpec struct {
	N      int64 // interior cube edge
	Layout Layout
	// OldBase and NewBase are the simulated base addresses of the two
	// toggle grids; MaskBase is the fluid-cell flag array (one word per
	// padded cell, pitched like a grid row — see MaskBytes).
	OldBase, NewBase phys.Addr
	MaskBase         phys.Addr
	// Fused coalesces the outer z and y loops into one parallel loop of
	// N*N iterations, the "fused I-J" variant that removes the sawtooth
	// modulo pattern in Fig. 7.
	Fused  bool
	Sched  omp.Schedule
	Sweeps int
}

// GridBytes returns the byte size of one toggle grid for interior edge n.
func GridBytes(n int64, l Layout) int64 {
	p := n + 2
	return int64(l.Size(int(p))) * phys.WordSize
}

// MaskBytes returns the byte size of the fluid-cell mask for the given
// layout: one word per padded cell, with the row at (y, z) starting
// RowStride(p) elements after the row at (y-1, z) — the same per-row
// element advance as every distribution-function stream, so one whole
// x-row of the kernel (mask included) is a constant-stride translate of
// the previous one.
func MaskBytes(n int64, l Layout) int64 {
	p := n + 2
	return int64(l.RowStride(int(p))) * p * p * phys.WordSize
}

// Program compiles the run into a per-thread work-item program. Units are
// lattice-site updates (Result.MUPs is MLUPs/s).
func (s *TraceSpec) Program(threads int) *trace.Program {
	if s.N < 1 {
		panic(fmt.Sprintf("lbm: domain edge %d", s.N))
	}
	sweeps := s.Sweeps
	if sweeps < 1 {
		sweeps = 1
	}
	outer := s.N // parallel loop over z
	if s.Fused {
		outer = s.N * s.N // coalesced (z, y)
	}
	asns := make([]omp.Assigner, sweeps)
	for i := range asns {
		asns[i] = s.Sched.Assigner(outer, threads)
	}
	fused := ""
	if s.Fused {
		fused = "/fused"
	}
	p := &trace.Program{
		Label: fmt.Sprintf("lbm/%s%s/N=%d/%s/t=%d", s.Layout.Name(), fused, s.N, s.Sched.String(), threads),
	}
	for t := 0; t < threads; t++ {
		p.Gens = append(p.Gens, &gen{spec: s, asns: asns, thread: t})
	}
	return p
}

type gen struct {
	spec   *TraceSpec
	asns   []omp.Assigner
	thread int
	sweep  int

	cur    omp.Chunk
	outer  int64 // current outer-loop index within cur
	hasRow bool
	y, z   int64 // current row coordinates (1-based padded interior)
	x      int64 // next x within the row

	// Element indices at x = 0 of the current row, computed once per row
	// by advanceRow: every layout's index is x plus a row term, so the
	// item at x reads distribution v at readRow[v]+x and pushes it to
	// pushRow[v]+x (the displaced neighbour's row, Cx[v] included), and
	// its mask word is at maskRow+x.
	readRow, pushRow [Q]int64
	maskRow          int64

	trRead  [Q]trace.LineTracker
	trWrite [Q]trace.LineTracker
	trMask  trace.LineTracker
}

// rowFromOuter decodes the outer-loop index into (z, y) and decides
// whether a row remains.
func (g *gen) advanceRow() bool {
	n := g.spec.N
	for {
		if g.hasRow {
			g.outer++
			if !g.spec.Fused {
				// Inner y loop first.
				if g.y < n {
					g.y++
					g.outer-- // outer index unchanged: still the same z
					break
				}
				if g.outer < g.cur.Hi {
					g.z = g.outer + 1
					g.y = 1
					break
				}
			} else if g.outer < g.cur.Hi {
				zi, yi := omp.Split2(g.outer, n)
				g.z, g.y = zi+1, yi+1
				break
			}
			g.hasRow = false
		}
		c, ok := g.asns[g.sweep].Next(g.thread)
		if !ok {
			g.sweep++
			if g.sweep >= len(g.asns) {
				return false
			}
			continue
		}
		g.cur = c
		g.outer = c.Lo
		if g.spec.Fused {
			zi, yi := omp.Split2(g.outer, n)
			g.z, g.y = zi+1, yi+1
		} else {
			g.z, g.y = g.outer+1, 1
		}
		g.hasRow = true
		break
	}
	g.x = 1
	p := int(n + 2)
	l := g.spec.Layout
	y, z := int(g.y), int(g.z)
	for v := 0; v < Q; v++ {
		g.readRow[v] = int64(l.Index(p, v, 0, y, z))
		g.pushRow[v] = int64(l.Index(p, v, Cx[v], y+Cy[v], z+Cz[v]))
		g.trRead[v].Reset()
		g.trWrite[v].Reset()
	}
	// The fluid-cell mask is row-pitched by the layout's RowStride, so the
	// whole kernel row translates by one constant byte stride (see
	// MaskBytes).
	g.maskRow = int64(l.RowStride(p)) * (g.y + int64(p)*g.z)
	g.trMask.Reset()
	return true
}

// word returns the address of element idx of the array at base.
func word(base phys.Addr, idx int64) phys.Addr {
	return base + phys.Addr(idx*phys.WordSize)
}

func (g *gen) Next(it *trace.Item) bool {
	n := g.spec.N
	if !g.hasRow || g.x > n {
		if !g.advanceRow() {
			return false
		}
	}
	old, new_ := g.spec.OldBase, g.spec.NewBase
	if g.sweep%2 == 1 {
		old, new_ = new_, old
	}

	lo := g.x
	hi := lo + phys.LineSize/phys.WordSize
	if hi > n+1 {
		hi = n + 1
	}
	sites := hi - lo

	// Fluid-cell mask: one word per padded cell, x-fastest, row-pitched
	// like the grids.
	ma := phys.LineOf(word(g.spec.MaskBase, g.maskRow+lo))
	mb := phys.LineOf(word(g.spec.MaskBase, g.maskRow+hi-1))
	for l := ma; l <= mb; l += phys.LineSize {
		if g.trMask.Touch(l) {
			it.Acc = append(it.Acc, trace.Access{Addr: l})
		}
	}

	for v := 0; v < Q; v++ {
		// Reads from the local cell block [lo, hi).
		a := phys.LineOf(word(old, g.readRow[v]+lo))
		b := phys.LineOf(word(old, g.readRow[v]+hi-1))
		for l := a; l <= b; l += phys.LineSize {
			if g.trRead[v].Touch(l) {
				it.Acc = append(it.Acc, trace.Access{Addr: l})
			}
		}
		// Pushes to the displaced neighbour block.
		wa := phys.LineOf(word(new_, g.pushRow[v]+lo))
		wb := phys.LineOf(word(new_, g.pushRow[v]+hi-1))
		for l := wa; l <= wb; l += phys.LineSize {
			if g.trWrite[v].Touch(l) {
				it.Acc = append(it.Acc, trace.Access{Addr: l, Write: true})
			}
		}
	}

	it.Demand = perSite.Scale(sites)
	it.Units = sites
	it.RepBytes = repBytesPerSite * sites
	g.x = hi
	return true
}
