// Lbm-channel runs a body-forced D3Q19 channel flow on the host (a real
// CFD computation: Poiseuille flow between two walls), prints the
// developed velocity profile, asks the layout advisor which data layout to
// use, and compares IJKv vs. IvJK vs. fused-loop IvJK on the simulated T2
// (the Fig. 7 experiment at one size).
package main

import (
	"fmt"
	"strings"

	"repro/internal/alloc"
	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/lbm"
	"repro/internal/machine"
	"repro/internal/omp"
	"repro/internal/phys"
)

func main() {
	// ---- host physics -------------------------------------------------
	const n = 18
	f := lbm.NewField(n, lbm.IvJK, 1.2)
	f.WallsY()
	f.PeriodicX = true
	f.PeriodicZ = true
	f.Force = 2e-6
	f.Init(1, 0, 0, 0)
	f.Run(600)
	prof := f.VelocityProfileX()
	fmt.Printf("host D3Q19 channel flow, %d^3 lattice, 600 steps:\n", n)
	max := 0.0
	for _, v := range prof {
		if v > max {
			max = v
		}
	}
	for y, v := range prof {
		bar := 0
		if max > 0 {
			bar = int(v / max * 40)
		}
		fmt.Printf("  y=%2d %-40s %.2e\n", y+1, strings.Repeat("#", bar), v)
	}
	fmt.Printf("  mass: %.6f per cell (exactly conserved)\n\n", f.Mass()/float64((n-2)*n*n))

	// ---- layout advice --------------------------------------------------
	// N = 66 is a size where the layouts genuinely differ: the IJKv
	// stream stride (68^3 doubles) is congruent 0 mod 512 so all 19
	// distribution functions alias onto one controller, while the IvJK
	// stride (68 doubles = 544 bytes) walks through all of them.
	const simN = 66
	mp := machine.MustGet("t2").Config.Mapping
	p := simN + 2
	sIJKv := int64(lbm.IJKv.VStride(p)) * phys.WordSize
	sIvJK := int64(lbm.IvJK.VStride(p)) * phys.WordSize
	fmt.Printf("layout advice at N=%d: IJKv spreads %d controllers, IvJK spreads %d -> use %s\n\n",
		simN, core.PhaseSpread(mp, sIJKv, lbm.Q), core.PhaseSpread(mp, sIvJK, lbm.Q),
		core.AdviseLayout(mp, "IJKv", sIJKv, "IvJK", sIvJK, lbm.Q))

	// ---- simulated performance -----------------------------------------
	m := chip.New(machine.MustGet("t2").Config)
	run := func(layout lbm.Layout, fused bool, threads int) chip.Result {
		sp := alloc.NewSpace()
		spec := lbm.TraceSpec{
			N: simN, Layout: layout,
			OldBase:  sp.Malloc(lbm.GridBytes(simN, layout)),
			NewBase:  sp.Malloc(lbm.GridBytes(simN, layout)),
			MaskBase: sp.Malloc(lbm.MaskBytes(simN, layout)),
			Fused:    fused, Sched: omp.StaticBlock{}, Sweeps: 1,
		}
		pr := spec.Program(threads)
		return m.Run(pr)
	}
	fmt.Printf("simulated T2, N=%d:\n", simN)
	fmt.Printf("  64T IJKv:        %6.1f MLUPs/s\n", run(lbm.IJKv, false, 64).MUPs)
	fmt.Printf("  64T IvJK:        %6.1f MLUPs/s\n", run(lbm.IvJK, false, 64).MUPs)
	fmt.Printf("  64T IvJK fused:  %6.1f MLUPs/s\n", run(lbm.IvJK, true, 64).MUPs)
	fmt.Printf("  32T IvJK fused:  %6.1f MLUPs/s\n", run(lbm.IvJK, true, 32).MUPs)
}
