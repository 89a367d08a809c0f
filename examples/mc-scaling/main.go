// Walkthrough: take the paper's placement recipe to a machine that never
// existed. We pick the hypothetical 8-controller profile from the machine
// registry, let the analyzer derive the planned offsets from its
// interleave (no trial and error, and no T2 constants anywhere), then run
// the congruent and planned placements on a sweep of machine profiles and
// read off the congruence cliff: where it appears, how it grows with the
// controller count, and what dissolves it.
//
// Run with: go run ./examples/mc-scaling
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

const (
	n       = 1 << 17 // elements per stream: chunks stay period-congruent on every profile below
	streams = 8       // at least as many streams as any profile has controllers
	threads = 64
)

// measure runs the 8-stream load kernel on prof with all stream bases
// displaced by i*offset bytes after period alignment.
func measure(prof machine.Profile, offset int64) chip.Result {
	mp := prof.Config.Mapping
	align := int64(phys.PageSize)
	if per := mp.Period(); per > align {
		align = per
	}
	sp := alloc.NewSpace()
	bases := sp.OffsetBases(streams, n*phys.WordSize, align, offset)
	k := kernels.LoadSum(bases, n)
	p := k.Program(omp.StaticBlock{}, threads)
	return chip.New(prof.Config).Run(p)
}

func main() {
	// Step 1: pick a machine. The registry describes every profile; mc8 is
	// the 8-controller chip the paper's T2 never was.
	prof := machine.MustGet("mc8")
	mp := prof.Config.Mapping
	fmt.Printf("machine %q: %s\n", prof.Name, prof.Doc)
	fmt.Printf("  controllers=%d  banks=%d  interleave period=%d B\n\n",
		mp.Controllers(), mp.Banks(), mp.Period())

	// Step 2: ask the analyzer for offsets. Everything is derived from the
	// profile's interleave: the step is period/controllers, here 128 B over
	// a 1 kB period.
	plan := core.PlanArrayOffsets(mp, streams)
	fmt.Printf("planned offsets for %d streams: %v bytes\n", streams, plan.Offsets)
	fmt.Printf("predicted controller concurrency: %.0f of %d\n\n",
		plan.Concurrency, mp.Controllers())

	// Step 3: sweep the cliff across machine profiles. "congruent" places
	// every stream base congruent mod the period (the paper's worst case);
	// "planned" applies the analyzer's offsets for that profile.
	fmt.Printf("%-10s %5s %9s %12s %12s %8s\n",
		"machine", "MCs", "period", "congruent", "planned", "cliff")
	for _, name := range []string{"t2-1mc", "t2-2mc", "t2", "mc8", "t2-wide1k", "xor"} {
		p := machine.MustGet(name)
		pmp := p.Config.Mapping
		worst := measure(p, 0)
		best := measure(p, core.PlanArrayOffsets(pmp, streams).Offsets[1])
		fmt.Printf("%-10s %5d %9d %9.2f GB/s %9.2f GB/s %7.1fx\n",
			name, pmp.Controllers(), pmp.Period(),
			worst.GBps, best.GBps, best.GBps/worst.GBps)
	}
	fmt.Println()
	fmt.Println("reading the cliff: one controller has nothing to alias against (1.0x);")
	fmt.Println("the cliff appears with the second controller, grows to mc8, survives a")
	fmt.Println("coarser granule (the modulus moves, the effect stays), and dissolves")
	fmt.Println("under the hashed interleave — placement tuning only matters on machines")
	fmt.Println("with a periodic, bit-field interleave.")
}
