package exp

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/chip"
)

// TestScratchPoolReuse: sweeps running on a shared pool produce
// byte-identical outcomes to fresh-arena sweeps, the pool actually
// recycles arenas across sweeps, and a checked-in arena carries no
// context from the sweep that used it.
func TestScratchPoolReuse(t *testing.T) {
	e := synthetic(nil)
	fresh, err := Runner{Jobs: 2}.Run(e)
	if err != nil {
		t.Fatalf("fresh sweep failed: %v", err)
	}
	want, err := fresh.JSON()
	if err != nil {
		t.Fatal(err)
	}

	pool := NewScratchPool(4)
	r := Runner{Jobs: 2, Pool: pool}
	for sweep := 0; sweep < 3; sweep++ {
		out, err := r.Run(e)
		if err != nil {
			t.Fatalf("pooled sweep %d failed: %v", sweep, err)
		}
		got, err := out.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pooled sweep %d differs from fresh sweep", sweep)
		}
	}
	if idle := pool.Idle(); idle == 0 || idle > 4 {
		t.Fatalf("pool holds %d idle arenas after 3 sweeps, want 1..4", idle)
	}
	sc := pool.Get()
	if sc.Ctx != nil {
		t.Fatal("checked-in arena still carries a sweep context")
	}
	if sc.Context() == nil {
		t.Fatal("Scratch.Context returned nil")
	}
}

// TestScratchPoolArenaStateSurvives: values cached in an arena during one
// sweep are visible to the worker that checks the same arena out for the
// next sweep — that is the whole point of pooling (machines survive across
// requests).
func TestScratchPoolArenaStateSurvives(t *testing.T) {
	pool := NewScratchPool(1)
	type key struct{}
	builds := 0
	e := Experiment{
		Name: "cached",
		Grid: Grid{Ints("x", 0, 1, 2)},
		Run: func(_ chip.Config, p Point, sc *Scratch) (Result, error) {
			sc.Get(key{}, func() any { builds++; return builds })
			return Result{Series: "s", X: float64(p.Int("x")), Y: 1}, nil
		},
	}
	r := Runner{Jobs: 1, Pool: pool}
	for sweep := 0; sweep < 3; sweep++ {
		if _, err := r.Run(e); err != nil {
			t.Fatalf("sweep %d failed: %v", sweep, err)
		}
	}
	if builds != 1 {
		t.Fatalf("cached value built %d times over 3 pooled sweeps, want 1", builds)
	}
}

// TestScratchPoolConcurrentSweeps: concurrent sweeps sharing one pool
// never share an arena (exclusivity is the pool's contract); run under
// -race this is the data-race oracle, and every sweep must still produce
// the byte-identical outcome.
func TestScratchPoolConcurrentSweeps(t *testing.T) {
	e := synthetic(nil)
	want, err := runJSON(e)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewScratchPool(8)
	var wg sync.WaitGroup
	errs := make([]error, 6)
	outs := make([][]byte, 6)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := Runner{Jobs: 2, Pool: pool}.Run(e)
			if err != nil {
				errs[i] = err
				return
			}
			outs[i], errs[i] = out.JSON()
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("concurrent sweep %d failed: %v", i, errs[i])
		}
		if !bytes.Equal(outs[i], want) {
			t.Fatalf("concurrent pooled sweep %d differs from reference", i)
		}
	}
	if idle := pool.Idle(); idle > 8 {
		t.Fatalf("pool retains %d idle arenas, bound is 8", idle)
	}
}

// runJSON is a test helper: the canonical JSON of a default-runner
// sweep.
func runJSON(e Experiment) ([]byte, error) {
	out, err := Runner{}.Run(e)
	if err != nil {
		return nil, err
	}
	return out.JSON()
}
