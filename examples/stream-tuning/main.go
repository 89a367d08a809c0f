// Stream-tuning reproduces the Fig. 2 offset study in miniature: it sweeps
// the STREAM COMMON-block offset, runs the triad on the simulated T2, and
// annotates every row with the analyzer's predicted regime — showing that
// the good and bad offsets are predictable from the address mapping alone.
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
	const n = 1 << 18
	m := chip.New(machine.MustGet("t2").Config)
	mp := machine.MustGet("t2").Config.Mapping

	fmt.Println("offset  ctrl-phases  predicted   measured GB/s")
	fmt.Println("------  -----------  ---------  --------------")
	for _, off := range []int64{0, 8, 13, 16, 24, 32, 40, 48, 56, 64, 96, 128} {
		phases, regime := core.ExplainStreamOffset(mp, n, off)
		sp := alloc.NewSpace()
		bases := sp.Common(3, n+off, phys.WordSize)
		k := kernels.StreamTriad(bases[0], bases[1], bases[2], n)
		p := k.Program(omp.StaticBlock{}, 64)
		r := m.Run(p)
		bar := int(r.GBps)
		fmt.Printf("%6d  A=%d B=%d C=%d  %-9s  %6.2f %s\n",
			off, phases[0], phases[1], phases[2], regime, r.GBps,
			bars(bar))
	}
	fmt.Println("\nperiodicity: offsets 0 and 64 words (512 bytes) behave identically —")
	fmt.Println("the controller interleave period of the T2 address mapping.")
}

func bars(n int) string {
	out := make([]byte, n)
	for i := range out {
		out[i] = '*'
	}
	return string(out)
}
