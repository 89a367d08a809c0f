package bench

import (
	"reflect"
	"testing"

	"repro/internal/alloc"
	"repro/internal/chip"
	"repro/internal/exp"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/omp"
	"repro/internal/phys"
)

// stripFFExp zeroes the fast-forward telemetry — the only fields of a
// point result allowed to differ between full simulation and fast-forward.
func stripFFExp(r exp.Result) exp.Result {
	r.FFItems, r.FFCycles = 0, 0
	r.FFJumps, r.FFSkippedEpochs = 0, 0
	return r
}

// TestFigureFastForwardEquivalence proves, for at least one point of every
// registered figure, that evaluating the point with steady-state
// fast-forward enabled produces exactly the result of full event-by-event
// simulation: same headline value, same metrics (bandwidth, traffic,
// balance), same cycle and access telemetry.
func TestFigureFastForwardEquivalence(t *testing.T) {
	o := tiny()
	// Long enough streams for the detector to lock on (detection plus two
	// validation periods) on the low-contention fig2 points.
	o.StreamN = 1 << 15
	anyForwarded := false
	for _, f := range Figures(o) {
		e := f.Exp
		pts := e.Points()
		if len(pts) == 0 {
			t.Fatalf("%s: no points", f.Name)
		}
		// First, second, middle and last point: cheap but covers both ends
		// of each figure's parameter grid plus one interior cell (on fig2
		// that is a non-convoy point where fast-forward engages). Indices
		// are deduplicated and clamped so single-point grids stay valid.
		tested := map[int]bool{}
		for _, i := range []int{0, 1, len(pts) / 2, len(pts) - 1} {
			if i >= len(pts) || tested[i] {
				continue
			}
			tested[i] = true
			p := pts[i]
			cfgOn := e.Cfg
			cfgOff := e.Cfg
			cfgOff.DisableFastForward = true
			on, err := e.Run(cfgOn, p, &exp.Scratch{})
			if err != nil {
				t.Fatalf("%s point %d (ff on): %v", f.Name, i, err)
			}
			off, err := e.Run(cfgOff, p, &exp.Scratch{})
			if err != nil {
				t.Fatalf("%s point %d (ff off): %v", f.Name, i, err)
			}
			if off.FFItems != 0 {
				t.Fatalf("%s point %d: disabled run fast-forwarded %d items", f.Name, i, off.FFItems)
			}
			if on.FFItems > 0 {
				anyForwarded = true
			}
			if !reflect.DeepEqual(stripFFExp(on), stripFFExp(off)) {
				t.Errorf("%s point %d (%v): fast-forward diverged:\n ff:   %+v\n full: %+v",
					f.Name, i, p.Params, on, off)
			}
		}
	}
	if !anyForwarded {
		t.Error("no tested figure point engaged fast-forward; the equivalence is vacuous")
	}
}

// TestFig7FastForwardEquivalence is the dedicated stencil leg: every point
// of the Fig. 7 LBM sweep (all four layout/fusion variants) and of the
// Fig. 6 Jacobi sweep, evaluated with the fast-forward detector armed and
// with it disabled, at a scale small enough for the race-detector CI job.
// Stencil generators re-touch lines across neighbouring items, so they do
// not implement trace.Forwardable and the detector must never arm on them:
// the armed run must report zero fast-forward telemetry and equal the
// disabled run in every field, telemetry included.
func TestFig7FastForwardEquivalence(t *testing.T) {
	o := tiny()
	o.LBMNs = []int64{16, 24}
	for _, e := range []exp.Experiment{o.Fig7Exp(), o.Fig6Exp()} {
		for i, p := range e.Points() {
			cfgOn := e.Cfg
			cfgOff := e.Cfg
			cfgOff.DisableFastForward = true
			on, err := e.Run(cfgOn, p, &exp.Scratch{})
			if err != nil {
				t.Fatalf("%s point %d (ff on): %v", e.Name, i, err)
			}
			off, err := e.Run(cfgOff, p, &exp.Scratch{})
			if err != nil {
				t.Fatalf("%s point %d (ff off): %v", e.Name, i, err)
			}
			if on.FFItems != 0 || on.FFCycles != 0 || on.FFJumps != 0 || on.FFSkippedEpochs != 0 {
				t.Fatalf("%s point %d (%v): stencil run fast-forwarded: items %d cycles %d jumps %d steps %d",
					e.Name, i, p.Params, on.FFItems, on.FFCycles, on.FFJumps, on.FFSkippedEpochs)
			}
			if !reflect.DeepEqual(on, off) {
				t.Errorf("%s point %d (%v): armed run diverged:\n armed:    %+v\n disabled: %+v",
					e.Name, i, p.Params, on, off)
			}
		}
	}
}

// TestProfileFastForwardEquivalence proves full chip.Result equality —
// cycles, retire counts, stall breakdowns, L2 stats, per-controller
// traffic and utilization — between fast-forwarded and full simulation on
// every machine profile in the registry, using the scaling study's
// 8-stream kernel plus a 16-thread triad (the case where fast-forward
// reliably engages on the t2).
func TestProfileFastForwardEquivalence(t *testing.T) {
	stripFF := func(r chip.Result) chip.Result {
		r.FFItems, r.FFCycles, r.FFPeriod = 0, 0, 0
		r.FFJumps, r.FFSkippedEpochs = 0, 0
		return r
	}
	anyForwarded := false
	for _, prof := range machine.Profiles() {
		for _, tc := range []struct {
			name    string
			threads int
			streams int
		}{{"loadsum64", 64, 8}, {"triad16", 16, 3}} {
			run := func(disable bool) chip.Result {
				cfg := prof.Config
				cfg.DisableFastForward = disable
				const n = 1 << 15
				sp := alloc.NewSpace()
				var k kernels.Stream
				if tc.streams == 8 {
					bases := sp.OffsetBases(8, n*phys.WordSize, phys.PageSize, 0)
					k = kernels.LoadSum(bases, n)
				} else {
					bases := sp.Common(3, n+8, phys.WordSize)
					k = kernels.StreamTriad(bases[0], bases[1], bases[2], n)
				}
				p := k.Program(omp.StaticBlock{}, tc.threads)
				p.WarmLines = cfg.L2.SizeBytes / phys.LineSize
				return chip.New(cfg).Run(p)
			}
			on := run(false)
			off := run(true)
			if on.FFItems > 0 {
				anyForwarded = true
			}
			if !reflect.DeepEqual(stripFF(on), stripFF(off)) {
				t.Errorf("%s/%s: fast-forward diverged:\n ff:   %+v\n full: %+v", prof.Name, tc.name, on, off)
			}
		}
	}
	if !anyForwarded {
		t.Error("fast-forward never engaged on any profile; the equivalence is vacuous")
	}
}
