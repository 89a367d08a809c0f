// Quickstart: diagnose and fix a memory-controller aliasing problem in
// three steps — analyze the stream set, plan offsets, verify on the
// simulated T2.
package main

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/omp"
	"repro/internal/phys"
)

func main() {
	const n = 1 << 19 // one vector triad array: 4 MB
	mp := machine.MustGet("t2").Config.Mapping
	m := chip.New(machine.MustGet("t2").Config)

	// Step 1: the naive placement — all four arrays page-aligned, as a
	// matrix allocator would produce. The analyzer predicts the convoy.
	sp := alloc.NewSpace()
	naive := sp.OffsetBases(4, n*phys.WordSize, phys.PageSize, 0)
	ss := core.StreamSet{Bases: naive, Stride: phys.LineSize}
	fmt.Printf("naive placement:   regime=%-8s predicted relative bandwidth %.2f\n",
		core.Regime(mp, ss), core.PredictRelativeBandwidth(mp, ss))

	k := kernels.VTriad(naive[0], naive[1], naive[2], naive[3], n)
	p := k.Program(omp.StaticBlock{}, 64)
	r := m.Run(p)
	fmt.Printf("                   measured %.2f GB/s\n\n", r.GBps)

	// Step 2: ask the planner for offsets.
	plan := core.PlanArrayOffsets(mp, 4)
	fmt.Printf("planned offsets:   %v bytes (concurrency %.0f/%d)\n",
		plan.Offsets, plan.Concurrency, mp.Controllers())

	// Step 3: apply and re-measure.
	sp2 := alloc.NewSpace()
	tuned := make([]phys.Addr, 4)
	for i := range tuned {
		tuned[i] = sp2.Memalign(phys.PageSize, n*phys.WordSize+plan.Offsets[i]) + phys.Addr(plan.Offsets[i])
	}
	ss2 := core.StreamSet{Bases: tuned, Stride: phys.LineSize}
	fmt.Printf("tuned placement:   regime=%-8s predicted relative bandwidth %.2f\n",
		core.Regime(mp, ss2), core.PredictRelativeBandwidth(mp, ss2))

	k2 := kernels.VTriad(tuned[0], tuned[1], tuned[2], tuned[3], n)
	p2 := k2.Program(omp.StaticBlock{}, 64)
	r2 := m.Run(p2)
	fmt.Printf("                   measured %.2f GB/s\n\n", r2.GBps)

	fmt.Printf("speedup from planned offsets: %.1fx\n", r2.GBps/r.GBps)
}
