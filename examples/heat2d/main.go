// Heat2d solves the 2D heat equation with the Jacobi solver on the host —
// using segmented-array rows placed by the planner — validates the result
// against the analytic steady state, and then compares plain vs. optimized
// row placement on the simulated T2 (the Fig. 6 experiment at one size).
package main

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/jacobi"
	"repro/internal/machine"
	"repro/internal/omp"
	"repro/internal/phys"
	"repro/internal/segarray"
)

func main() {
	// ---- host solve on segmented rows -------------------------------
	const n = 65
	rp := core.PlanRows(machine.MustGet("t2").Config.Mapping)
	params := segarray.Params{ElemSize: phys.WordSize, Align: phys.PageSize,
		SegAlign: rp.SegAlign, Shift: rp.Shift}
	rows := make([]int64, n)
	for i := range rows {
		rows[i] = n
	}
	sp := alloc.NewSpace()
	mkGrid := func() *jacobi.Grid {
		arr := segarray.NewArray[float64](segarray.Plan(sp, params, rows))
		host := make([][]float64, n)
		for i := range host {
			host[i] = arr.Segment(i)
		}
		g := jacobi.FromRows(n, host)
		g.SetBoundary(100, 0) // 100 degrees at the top, 0 at the bottom
		return g
	}
	a, b := mkGrid(), mkGrid()
	res := jacobi.Solve(a, b, 8000, 8)
	fmt.Printf("host solve: %dx%d grid, 8000 sweeps, 8 goroutines\n", n, n)
	fmt.Printf("  center temperature: %.3f (analytic: 50.000)\n", res.Rows[n/2][n/2])
	fmt.Printf("  max deviation from analytic steady state: %.2e\n\n", res.MaxLinearError(100, 0))

	// ---- simulated performance comparison ---------------------------
	// N = 1216 is one of the unlucky sizes: the plain row stride
	// (1216*8 bytes) is a multiple of 512, so every contiguous row starts
	// on the same controller. The paper's Fig. 6 "plain" curve dips at
	// exactly such sizes (periodicity 64 in N); sizes like 1200 are lucky
	// and the plain code matches the optimized one there.
	const simN = 1216
	m := chip.New(machine.MustGet("t2").Config)

	spPlain := alloc.NewSpace()
	plain := jacobi.Spec{
		N:      simN,
		Src:    jacobi.PlainRows(spPlain.Malloc(simN*simN*phys.WordSize), simN),
		Dst:    jacobi.PlainRows(spPlain.Malloc(simN*simN*phys.WordSize), simN),
		Sched:  omp.StaticChunk{Size: 1},
		Sweeps: 2,
	}
	pp := plain.Program(64)
	rPlain := m.Run(pp)

	spOpt := alloc.NewSpace()
	simRows := make([]int64, simN)
	for i := range simRows {
		simRows[i] = simN
	}
	srcL := segarray.Plan(spOpt, params, simRows)
	dstL := segarray.Plan(spOpt, params, simRows)
	optimized := jacobi.Spec{
		N:      simN,
		Src:    func(i int64) phys.Addr { return srcL.Segs[i].Start },
		Dst:    func(i int64) phys.Addr { return dstL.Segs[i].Start },
		Sched:  omp.StaticChunk{Size: 1},
		Sweeps: 2,
	}
	po := optimized.Program(64)
	rOpt := m.Run(po)

	fmt.Printf("simulated T2, N=%d, 64 threads:\n", simN)
	fmt.Printf("  plain rows:      %7.1f MLUPs/s\n", rPlain.MUPs)
	fmt.Printf("  planned rows:    %7.1f MLUPs/s  (align %dB, shift %dB, %s)\n",
		rOpt.MUPs, rp.SegAlign, rp.Shift, rp.Schedule)
	fmt.Printf("  improvement:     %7.1fx\n", rOpt.MUPs/rPlain.MUPs)
}
