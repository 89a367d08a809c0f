package jacobi

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/omp"
	"repro/internal/phys"
	"repro/internal/trace"
)

// The paper notes (Sect. 2.3): "In a 3D formulation, two additional
// arguments (rows) to relax_line() would be required" and that the modulo
// effect "can be expected to become more pronounced in the 3D case". This
// file provides that formulation: a 7-point stencil on an N^3 domain with
// every x-row an independently placeable segment.

// Grid3D is a host N^3 grid stored as per-row slices indexed [z][y].
type Grid3D struct {
	N    int
	Rows [][][]float64 // [z][y] -> row of N values along x
}

// NewGrid3D allocates a contiguous cube.
func NewGrid3D(n int) *Grid3D {
	backing := make([]float64, n*n*n)
	g := &Grid3D{N: n, Rows: make([][][]float64, n)}
	for z := 0; z < n; z++ {
		g.Rows[z] = make([][]float64, n)
		for y := 0; y < n; y++ {
			g.Rows[z][y], backing = backing[:n:n], backing[n:]
		}
	}
	return g
}

// SetBoundary3D fixes all six faces to the linear-in-z profile that makes
// the steady state exactly linear, mirroring SetBoundary in 2D.
func (g *Grid3D) SetBoundary3D(top, bottom float64) {
	n := g.N
	val := func(z int) float64 { return top + (bottom-top)*float64(z)/float64(n-1) }
	for z := 0; z < n; z++ {
		v := val(z)
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				if z == 0 || z == n-1 || y == 0 || y == n-1 || x == 0 || x == n-1 {
					g.Rows[z][y][x] = v
				}
			}
		}
	}
}

// RelaxLine3D computes one destination row from its six neighbour rows —
// relax_line with the two additional arguments the paper describes.
func RelaxLine3D(dst, zlo, zhi, ylo, yhi, cur []float64) {
	const w = 1.0 / 6.0
	for x := 1; x < len(dst)-1; x++ {
		dst[x] = (zlo[x] + zhi[x] + ylo[x] + yhi[x] + cur[x-1] + cur[x+1]) * w
	}
}

// Sweep3D performs one Jacobi sweep parallelized over (z, y) rows.
func Sweep3D(dst, src *Grid3D, threads int) {
	n := src.N
	rows := (n - 2) * (n - 2)
	if rows <= 0 {
		return
	}
	body := func(lo, hi int) {
		for r := lo; r < hi; r++ {
			z := r/(n-2) + 1
			y := r%(n-2) + 1
			RelaxLine3D(dst.Rows[z][y],
				src.Rows[z-1][y], src.Rows[z+1][y],
				src.Rows[z][y-1], src.Rows[z][y+1],
				src.Rows[z][y])
		}
	}
	if threads <= 1 {
		body(0, rows)
		return
	}
	var wg sync.WaitGroup
	q, rem := rows/threads, rows%threads
	lo := 0
	for t := 0; t < threads; t++ {
		hi := lo + q
		if t < rem {
			hi++
		}
		if hi > lo {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				body(lo, hi)
			}(lo, hi)
		}
		lo = hi
	}
	wg.Wait()
}

// Solve3D iterates sweeps between the two grids and returns the final one.
func Solve3D(a, b *Grid3D, sweeps, threads int) *Grid3D {
	src, dst := a, b
	for s := 0; s < sweeps; s++ {
		Sweep3D(dst, src, threads)
		src, dst = dst, src
	}
	return src
}

// MaxLinearError3D returns the interior's maximum deviation from the
// linear-in-z steady state.
func (g *Grid3D) MaxLinearError3D(top, bottom float64) float64 {
	n := g.N
	var max float64
	for z := 1; z < n-1; z++ {
		want := top + (bottom-top)*float64(z)/float64(n-1)
		for y := 1; y < n-1; y++ {
			for x := 1; x < n-1; x++ {
				if d := math.Abs(g.Rows[z][y][x] - want); d > max {
					max = d
				}
			}
		}
	}
	return max
}

// ---- simulated 3D kernel ---------------------------------------------------

// perSite3D: six loads, one store, five adds and one multiply, plus loop
// overhead.
var perSite3D = cpu3dDemand()

func cpu3dDemand() (d struct {
	MemOps, Flops, IntOps int64
}) {
	d.MemOps, d.Flops, d.IntOps = 7, 6, 1
	return
}

// RowAddr3D maps (z, y) to the simulated address of that row's first
// element.
type RowAddr3D func(z, y int64) phys.Addr

// PlainRows3D returns the row addressing of a contiguous N^3 allocation.
func PlainRows3D(base phys.Addr, n int64) RowAddr3D {
	return func(z, y int64) phys.Addr {
		return base + phys.Addr((z*n+y)*n*phys.WordSize)
	}
}

// Spec3D describes one simulated 3D Jacobi experiment. The parallel loop
// runs over the coalesced (z, y) row index, which is also where the
// paper's 3D modulo discussion applies.
type Spec3D struct {
	N      int64
	Src    RowAddr3D
	Dst    RowAddr3D
	Sched  omp.Schedule
	Sweeps int
	// Coalesce parallelizes over the fused (z, y) space; otherwise the
	// parallel loop runs over z only, leaving y inside each chunk — the
	// configuration in which the 3D modulo effect is most pronounced.
	Coalesce bool
}

// Program compiles the experiment; units are site updates.
func (s *Spec3D) Program(threads int) *trace.Program {
	if s.N < 3 {
		panic(fmt.Sprintf("jacobi: 3D grid dimension %d", s.N))
	}
	sweeps := s.Sweeps
	if sweeps < 1 {
		sweeps = 1
	}
	inner := s.N - 2
	outer := inner
	if s.Coalesce {
		outer = inner * inner
	}
	asns := make([]omp.Assigner, sweeps)
	for i := range asns {
		asns[i] = s.Sched.Assigner(outer, threads)
	}
	label := "jacobi3d"
	if s.Coalesce {
		label = "jacobi3d/fused"
	}
	p := &trace.Program{
		Label: fmt.Sprintf("%s/N=%d/%s/t=%d", label, s.N, s.Sched.String(), threads),
	}
	for t := 0; t < threads; t++ {
		p.Gens = append(p.Gens, &gen3d{spec: s, asns: asns, thread: t})
	}
	return p
}

type gen3d struct {
	spec   *Spec3D
	asns   []omp.Assigner
	thread int
	sweep  int

	cur    omp.Chunk
	outer  int64
	hasRow bool
	z, y   int64
	x      int64

	tr [7]trace.LineTracker // zlo, zhi, ylo, yhi, cur, (spare), dst
}

func (g *gen3d) advanceRow() bool {
	inner := g.spec.N - 2
	for {
		if g.hasRow {
			if !g.spec.Coalesce && g.y < inner {
				g.y++
				break
			}
			g.outer++
			if g.outer < g.cur.Hi {
				if g.spec.Coalesce {
					zi, yi := omp.Split2(g.outer, inner)
					g.z, g.y = zi+1, yi+1
				} else {
					g.z, g.y = g.outer+1, 1
				}
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
		if g.spec.Coalesce {
			zi, yi := omp.Split2(g.outer, inner)
			g.z, g.y = zi+1, yi+1
		} else {
			g.z, g.y = g.outer+1, 1
		}
		g.hasRow = true
		break
	}
	g.x = 1
	for i := range g.tr {
		g.tr[i].Reset()
	}
	return true
}

func (g *gen3d) Next(it *trace.Item) bool {
	n := g.spec.N
	if !g.hasRow || g.x >= n-1 {
		if !g.advanceRow() {
			return false
		}
	}
	src, dst := g.spec.Src, g.spec.Dst
	if g.sweep%2 == 1 {
		src, dst = dst, src
	}

	lo := g.x
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
	emit(src(g.z-1, g.y), &g.tr[0], false, lo, hi-1)
	emit(src(g.z+1, g.y), &g.tr[1], false, lo, hi-1)
	emit(src(g.z, g.y-1), &g.tr[2], false, lo, hi-1)
	emit(src(g.z, g.y+1), &g.tr[3], false, lo, hi-1)
	emit(src(g.z, g.y), &g.tr[4], false, lo-1, hi)
	emit(dst(g.z, g.y), &g.tr[6], true, lo, hi-1)

	it.Demand.MemOps = perSite3D.MemOps * elems
	it.Demand.Flops = perSite3D.Flops * elems
	it.Demand.IntOps = perSite3D.IntOps * elems
	it.Units = elems
	it.RepBytes = 16 * elems
	g.x = hi
	return true
}
