package bench

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/omp"
	"repro/internal/phys"
)

// crossvalExp sweeps the three placement regimes (convoy, partial,
// uniform) as one declarative experiment; each point carries the
// analyzer's predicted relative bandwidth alongside the simulator's
// measurement.
func crossvalExp(n int64) exp.Experiment {
	mp := phys.T2()
	return exp.Experiment{
		Name: "crossval",
		Doc:  "analyzer-predicted vs simulator-measured bandwidth by offset regime",
		Cfg:  machine.MustGet("t2").Config,
		Grid: exp.Grid{
			exp.Int64s("offset", 0, 32, 16), // convoy, partial, uniform
		},
		Run: func(cfg chip.Config, p exp.Point, sc *exp.Scratch) (exp.Result, error) {
			off := p.Int64("offset")
			ndim := n + off
			bases := []phys.Addr{0, phys.Addr(ndim * phys.WordSize), phys.Addr(2 * ndim * phys.WordSize)}
			pred := core.PredictRelativeBandwidth(mp, core.StreamSet{Bases: bases, Stride: phys.LineSize})

			sp := alloc.NewSpace()
			real := sp.Common(3, ndim, phys.WordSize)
			k := kernels.StreamTriad(real[0], real[1], real[2], n)
			prog := k.Program(omp.StaticBlock{}, 64)
			r := chip.New(cfg).Run(prog)
			return exp.Result{
				Series:  "triad/64T",
				X:       float64(off),
				Y:       r.GBps,
				Metrics: map[string]float64{"predicted": pred},
			}, nil
		},
	}
}

// TestAnalyzerPredictsSimulator cross-validates the paper's central
// methodological claim — that placement quality is predictable from the
// address mapping alone: the analyzer's predicted relative bandwidth must
// rank the simulator's measured bandwidth across the three regimes, and
// the predicted controller utilization shares must match the measured
// ones for the convoy case.
func TestAnalyzerPredictsSimulator(t *testing.T) {
	out := outcome(t, crossvalExp(1<<17))
	pts := out.Points
	if len(pts) != 3 {
		t.Fatalf("crossval produced %d points, want 3", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		a, b := pts[i-1], pts[i]
		if a.Result.Metrics["predicted"] >= b.Result.Metrics["predicted"] {
			t.Fatalf("analyzer ordering broken: off=%.0f pred %.2f vs off=%.0f pred %.2f",
				a.Result.X, a.Result.Metrics["predicted"], b.Result.X, b.Result.Metrics["predicted"])
		}
		if a.Result.Y >= b.Result.Y {
			t.Errorf("simulator disagrees with analyzer: off=%.0f measured %.2f not below off=%.0f measured %.2f",
				a.Result.X, a.Result.Y, b.Result.X, b.Result.Y)
		}
	}

	// Quantitative check for the convoy: predicted 0.25 relative bandwidth;
	// measured worst/best must land within a factor of 1.6 of that.
	ratio := pts[0].Result.Y / pts[2].Result.Y
	if ratio < 0.25/1.6 || ratio > 0.25*1.6 {
		t.Errorf("convoy measured/best = %.3f, predicted 0.25 (tolerance 1.6x)", ratio)
	}
}

// plannerExp measures the vector triad under naive page alignment and the
// planner's per-array offsets as a two-point experiment.
func plannerExp(n int64) exp.Experiment {
	plan := core.PlanArrayOffsets(phys.T2(), 4)
	return exp.Experiment{
		Name: "planner",
		Doc:  "planned vs naive vector-triad placement",
		Cfg:  machine.MustGet("t2").Config,
		Grid: exp.Grid{
			exp.Strs("placement", "naive", "planned"),
		},
		Run: func(cfg chip.Config, p exp.Point, sc *exp.Scratch) (exp.Result, error) {
			offset := int64(0)
			if p.Str("placement") == "planned" {
				offset = plan.Offsets[1] // arrays shifted by i*128
			}
			sp := alloc.NewSpace()
			bases := sp.OffsetBases(4, n*phys.WordSize, phys.PageSize, offset)
			k := kernels.VTriad(bases[0], bases[1], bases[2], bases[3], n)
			prog := k.Program(omp.StaticBlock{}, 64)
			r := chip.New(cfg).Run(prog)
			return exp.Result{Series: p.Str("placement"), X: float64(offset), Y: r.GBps}, nil
		},
	}
}

// TestPlannerBeatsNaivePlacement verifies end-to-end that applying
// core.PlanArrayOffsets to the vector triad yields at least the predicted
// improvement class over page-aligned placement.
func TestPlannerBeatsNaivePlacement(t *testing.T) {
	out := outcome(t, plannerExp(1<<17))
	naive, planned := out.Points[0].Result.Y, out.Points[1].Result.Y
	if planned < 2.0*naive {
		t.Errorf("planned placement %.2f GB/s not at least 2x naive %.2f GB/s", planned, naive)
	}
}
