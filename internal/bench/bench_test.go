package bench

import (
	"os"
	"testing"

	"repro/internal/exp"
	"repro/internal/stats"
)

// outcome runs e on the default runner (GOMAXPROCS workers) and fails the
// test on a point error.
func outcome(t *testing.T, e exp.Experiment) exp.Outcome {
	t.Helper()
	out, err := exp.Runner{}.Run(e)
	if err != nil {
		t.Fatalf("%s: %v", e.Name, err)
	}
	return out
}

// TestFig2Shape regenerates Fig. 2 at test scale and validates the paper's
// qualitative claims for it.
func TestFig2Shape(t *testing.T) {
	o := Small()
	r := Fig2FromSeries(outcome(t, o.Fig2Exp()).Series())
	for _, s := range r.Triad {
		t.Logf("%s: %v", s.Name, s.Y)
	}
	t.Logf("%s: %v", r.Copy.Name, r.Copy.Y)
	if err := CheckFig2(r, o.OffsetStep); err != nil {
		t.Error(err)
	}
}

// TestFig4Shape regenerates Fig. 4 at test scale and validates it.
func TestFig4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("Fig. 4 sweep is slow; run without -short for the full shape check")
	}
	o := Small()
	series := outcome(t, o.Fig4Exp()).Series()
	for _, s := range series {
		sm := stats.Summarize(s.Y)
		t.Logf("%-12s min %.2f max %.2f mean %.2f", s.Name, sm.Min, sm.Max, sm.Mean)
	}
	if err := CheckFig4(series); err != nil {
		t.Error(err)
	}
}

// TestFig5Shape regenerates Fig. 5 at test scale and validates it.
func TestFig5Shape(t *testing.T) {
	o := Small()
	series := outcome(t, o.Fig5Exp(64)).Series()
	for _, s := range series {
		t.Logf("%s: %v", s.Name, s.Y)
	}
	if err := CheckFig5(series); err != nil {
		t.Error(err)
	}
}

// TestFig6Shape regenerates Fig. 6 at test scale and validates it.
func TestFig6Shape(t *testing.T) {
	o := Small()
	series := outcome(t, o.Fig6Exp()).Series()
	for _, s := range series {
		t.Logf("%s: %v", s.Name, s.Y)
	}
	if err := CheckFig6(series); err != nil {
		t.Error(err)
	}
}

// TestFig7Shape regenerates Fig. 7 at test scale and validates it.
func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("LBM shape test is slow; run without -short for the full shape check")
	}
	o := Small()
	series := outcome(t, o.Fig7Exp()).Series()
	for _, s := range series {
		t.Logf("%s: %v", s.Name, s.Y)
	}
	if err := CheckFig7(series); err != nil {
		t.Error(err)
	}
	stats.Plot(os.Stderr, "fig7 (test scale)", series, 60, 12)
}
