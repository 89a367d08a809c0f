package chip

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/phys"
	"repro/internal/trace"
)

// signalGen closes started on its first Next, so a test can cancel a run
// that is provably mid-flight instead of racing the run's startup.
type signalGen struct {
	marching
	started chan struct{}
	once    sync.Once
}

func (g *signalGen) Next(it *trace.Item) bool {
	g.once.Do(func() { close(g.started) })
	return g.marching.Next(it)
}

// marchingProg builds a fresh synthetic-triad program (generators are
// stateful, so every run needs its own): threads strands streaming loads
// and stores across all controllers, heavy enough to drive misses, dirty
// evictions, NACK retries and the run-ahead window.
func marchingProg(threads, items int) *trace.Program {
	gens := make([]trace.Generator, threads)
	for i := range gens {
		gens[i] = &marching{n: items, addr: phys.Addr(i) << 24}
	}
	return prog(gens...)
}

// TestRunCtxMatchesRun pins the zero-cost contract: a background context
// takes the exact fault-free path, so RunCtx and Run agree byte for byte.
func TestRunCtxMatchesRun(t *testing.T) {
	cfg := t2cfg()
	want := New(cfg).Run(marchingProg(8, 40))
	got, err := New(cfg).RunCtx(context.Background(), marchingProg(8, 40))
	if err != nil {
		t.Fatalf("RunCtx(Background) failed: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RunCtx diverged from Run:\n ctx: %+v\n run: %+v", got, want)
	}
}

// TestRunCtxPreCancelled: an already-cancelled context aborts immediately
// with a CancelError wrapping the cause, and the machine remains reusable —
// the next run must match a fresh machine's byte for byte.
func TestRunCtxPreCancelled(t *testing.T) {
	cfg := t2cfg()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := New(cfg)
	_, err := m.RunCtx(ctx, marchingProg(8, 40))
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("pre-cancelled RunCtx returned %v, want *CancelError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CancelError does not wrap context.Canceled: %v", err)
	}
	got := m.Run(marchingProg(8, 40))
	want := New(cfg).Run(marchingProg(8, 40))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("machine state leaked across a cancelled run:\n got:  %+v\n want: %+v", got, want)
	}
}

// TestRunCtxCancelMidRun cancels a long run the moment its first work item
// is pulled and asserts a clean abort: a CancelError with a measured halt
// latency, partial telemetry with a real clock horizon, and a machine that
// is reusable — aborted with events pending and strands mid-wait, its next
// run must match a fresh machine's byte for byte.
func TestRunCtxCancelMidRun(t *testing.T) {
	cfg := t2cfg()
	const threads, items = 16, 1 << 20 // hours of simulation if not cancelled
	gens := make([]trace.Generator, threads)
	started := make(chan struct{})
	gens[0] = &signalGen{marching: marching{n: items}, started: started}
	for i := 1; i < threads; i++ {
		gens[i] = &marching{n: items, addr: phys.Addr(i) << 24}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { <-started; cancel() }()
	m := New(cfg)
	res, err := m.RunCtx(ctx, prog(gens...))
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("cancelled RunCtx returned %v, want *CancelError", err)
	}
	if ce.Latency <= 0 {
		t.Fatalf("mid-run cancel reported no halt latency: %+v", ce)
	}
	if res.Cycles <= 0 || res.Threads != threads {
		t.Fatalf("partial result has no telemetry horizon: %+v", res)
	}
	got := m.Run(marchingProg(8, 40))
	want := New(cfg).Run(marchingProg(8, 40))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("machine state leaked across a mid-run cancel:\n got:  %+v\n want: %+v", got, want)
	}
}
