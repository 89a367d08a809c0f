package exp_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/exp"
)

// TestPoolFiguresMatchOneJob: small fig5 and scaling submitted together
// to one two-worker pool, so their points interleave on shared workers
// and Scratch arenas, give the JSON a one-job Runner gives each alone.
func TestPoolFiguresMatchOneJob(t *testing.T) {
	var figs []bench.Figure
	for _, f := range bench.Figures(bench.Small()) {
		if f.Name == "fig5" || f.Name == "scaling" {
			figs = append(figs, f)
		}
	}
	if len(figs) != 2 {
		t.Fatalf("registry has %d of fig5 and scaling", len(figs))
	}
	p := exp.NewPool(2)
	var batches []*exp.Batch
	for _, f := range figs {
		batches = append(batches, p.Submit(context.Background(), f.Exp, 0))
	}
	for i, f := range figs {
		pooled, err := batches[i].Wait()
		if err != nil {
			t.Fatalf("%s in the shared pool: %v", f.Name, err)
		}
		alone, err := exp.Runner{Jobs: 1}.Run(f.Exp)
		if err != nil {
			t.Fatalf("%s at one job: %v", f.Name, err)
		}
		a, _ := pooled.JSON()
		b, _ := alone.JSON()
		if !bytes.Equal(a, b) {
			t.Errorf("%s: JSON from the shared pool differs from one job", f.Name)
		}
	}
}
