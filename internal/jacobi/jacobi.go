// Package jacobi implements the 2D Jacobi heat-equation relaxation solver
// of Sect. 2.3: a five-point stencil on an N x N grid, parallelized over
// rows, with each row an independently placeable segment. The package
// provides a real host solver (validated against the analytic steady
// state) and a trace compiler for the simulated T2 that reproduces the
// experiment of Fig. 6.
package jacobi

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/cpu"
	"repro/internal/omp"
	"repro/internal/phys"
	"repro/internal/trace"
)

// ---- host solver ----------------------------------------------------------

// Grid is a host-side N x N grid stored as per-row slices, so rows may come
// from a plain allocation or from segarray segments interchangeably.
type Grid struct {
	N    int
	Rows [][]float64
}

// NewGrid allocates a contiguous grid with row slices into one backing
// array (the "plain" layout).
func NewGrid(n int) *Grid {
	backing := make([]float64, n*n)
	g := &Grid{N: n, Rows: make([][]float64, n)}
	for i := range g.Rows {
		g.Rows[i], backing = backing[:n:n], backing[n:]
	}
	return g
}

// FromRows wraps existing row storage (e.g. segarray segments) as a grid.
// All rows must have length n.
func FromRows(n int, rows [][]float64) *Grid {
	if len(rows) != n {
		panic(fmt.Sprintf("jacobi: %d rows for n=%d", len(rows), n))
	}
	for i, r := range rows {
		if len(r) != n {
			panic(fmt.Sprintf("jacobi: row %d has length %d, want %d", i, len(r), n))
		}
	}
	return &Grid{N: n, Rows: rows}
}

// SetBoundary fixes the four edges: top row to top, bottom row to bottom,
// and the side columns to a linear blend, which makes the steady state an
// exact linear profile — a sharp validation target.
func (g *Grid) SetBoundary(top, bottom float64) {
	n := g.N
	for j := 0; j < n; j++ {
		g.Rows[0][j] = top
		g.Rows[n-1][j] = bottom
	}
	for i := 0; i < n; i++ {
		v := top + (bottom-top)*float64(i)/float64(n-1)
		g.Rows[i][0] = v
		g.Rows[i][n-1] = v
	}
}

// RelaxLine computes one destination row from the three source rows — the
// paper's relax_line(), deliberately free of any segment logic so it runs
// at native speed on host slices.
func RelaxLine(dst, above, below, cur []float64) {
	for j := 1; j < len(dst)-1; j++ {
		dst[j] = (above[j] + below[j] + cur[j-1] + cur[j+1]) * 0.25
	}
}

// Sweep performs one Jacobi sweep from src into dst using the given number
// of host goroutines over rows (static block split).
func Sweep(dst, src *Grid, threads int) {
	n := src.N
	rows := n - 2
	if rows <= 0 {
		return
	}
	if threads <= 1 {
		for i := 1; i < n-1; i++ {
			RelaxLine(dst.Rows[i], src.Rows[i-1], src.Rows[i+1], src.Rows[i])
		}
		return
	}
	var wg sync.WaitGroup
	q, r := rows/threads, rows%threads
	lo := 1
	for t := 0; t < threads; t++ {
		hi := lo + q
		if t < r {
			hi++
		}
		if hi > lo {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					RelaxLine(dst.Rows[i], src.Rows[i-1], src.Rows[i+1], src.Rows[i])
				}
			}(lo, hi)
		}
		lo = hi
	}
	wg.Wait()
}

// Solve iterates sweeps between the two grids (toggling) and returns the
// grid holding the final iterate.
func Solve(a, b *Grid, sweeps, threads int) *Grid {
	src, dst := a, b
	for s := 0; s < sweeps; s++ {
		Sweep(dst, src, threads)
		src, dst = dst, src
	}
	return src
}

// MaxLinearError returns the maximum deviation of the grid's interior from
// the linear steady-state profile implied by SetBoundary(top, bottom).
func (g *Grid) MaxLinearError(top, bottom float64) float64 {
	n := g.N
	var max float64
	for i := 1; i < n-1; i++ {
		want := top + (bottom-top)*float64(i)/float64(n-1)
		for j := 1; j < n-1; j++ {
			if d := math.Abs(g.Rows[i][j] - want); d > max {
				max = d
			}
		}
	}
	return max
}

// ---- simulated kernel ------------------------------------------------------

// perSite is the instruction demand of one lattice-site update: four loads,
// one store, three adds and one multiply, plus loop overhead.
var perSite = cpu.Demand{MemOps: 5, Flops: 4, IntOps: 1}

// RowAddr maps a row index to the simulated address of its first element.
type RowAddr func(row int64) phys.Addr

// PlainRows returns the row addressing of a contiguous N x N allocation.
func PlainRows(base phys.Addr, n int64) RowAddr {
	return func(row int64) phys.Addr { return base + phys.Addr(row*n*phys.WordSize) }
}

// Spec describes one simulated Jacobi experiment instance.
type Spec struct {
	N      int64 // grid dimension
	Src    RowAddr
	Dst    RowAddr
	Sched  omp.Schedule
	Sweeps int // toggling iterations; < 1 means 1
}

// Program compiles the experiment into a per-thread work-item program.
// Units are lattice-site updates, so Result.MUPs is directly the MLUPs/s
// of Fig. 6.
func (s *Spec) Program(threads int) *trace.Program {
	if s.N < 3 {
		panic(fmt.Sprintf("jacobi: grid dimension %d", s.N))
	}
	sweeps := s.Sweeps
	if sweeps < 1 {
		sweeps = 1
	}
	asns := make([]omp.Assigner, sweeps)
	for i := range asns {
		asns[i] = s.Sched.Assigner(s.N-2, threads)
	}
	p := &trace.Program{
		Label: fmt.Sprintf("jacobi/N=%d/%s/t=%d", s.N, s.Sched.String(), threads),
	}
	for t := 0; t < threads; t++ {
		p.Gens = append(p.Gens, &gen{spec: s, asns: asns, thread: t})
	}
	return p
}

type gen struct {
	spec   *Spec
	asns   []omp.Assigner
	thread int
	sweep  int

	cur     omp.Chunk
	hasRow  bool
	row     int64 // current row (1-based interior index)
	col     int64 // next column within row
	trAbove trace.LineTracker
	trBelow trace.LineTracker
	trCur   trace.LineTracker
	trDst   trace.LineTracker
}

func (g *gen) nextRow() bool {
	for {
		if g.hasRow && g.row+1 < g.cur.Hi+1 {
			g.row++
		} else {
			for {
				if g.sweep >= len(g.asns) {
					return false
				}
				c, ok := g.asns[g.sweep].Next(g.thread)
				if ok {
					g.cur = c
					g.row = c.Lo + 1 // interior rows start at 1
					g.hasRow = true
					break
				}
				g.sweep++
				g.hasRow = false
			}
		}
		g.col = 1
		g.trAbove.Reset()
		g.trBelow.Reset()
		g.trCur.Reset()
		g.trDst.Reset()
		return true
	}
}

func (g *gen) Next(it *trace.Item) bool {
	n := g.spec.N
	if !g.hasRow || g.col >= n-1 {
		if !g.nextRow() {
			return false
		}
	}
	// The grids toggle every sweep.
	src, dst := g.spec.Src, g.spec.Dst
	if g.sweep%2 == 1 {
		src, dst = dst, src
	}

	lo := g.col
	hi := lo + phys.LineSize/phys.WordSize
	if hi > n-1 {
		hi = n - 1
	}
	elems := hi - lo

	emit := func(base phys.Addr, tr *trace.LineTracker, write bool, first, last int64) {
		a := phys.LineOf(base + phys.Addr(first*phys.WordSize))
		b := phys.LineOf(base + phys.Addr(last*phys.WordSize))
		for l := a; l <= b; l += phys.LineSize {
			if tr.Touch(l) {
				it.Acc = append(it.Acc, trace.Access{Addr: l, Write: write})
			}
		}
	}
	// cur row is read with the [lo-1, hi] halo; above/below with [lo, hi).
	emit(src(g.row-1), &g.trAbove, false, lo, hi-1)
	emit(src(g.row+1), &g.trBelow, false, lo, hi-1)
	emit(src(g.row), &g.trCur, false, lo-1, hi)
	emit(dst(g.row), &g.trDst, true, lo, hi-1)

	it.Demand = perSite.Scale(elems)
	it.Units = elems
	it.RepBytes = 16 * elems // one load + one store per site reach memory
	g.col = hi
	return true
}
