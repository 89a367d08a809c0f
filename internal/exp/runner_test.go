package exp

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chip"
)

// TestRunnerPointFailureIsTerminal: a point whose closure returns an
// error is run once and surfaces as a PointError for that point, and the
// outcome keeps the points that did succeed.
func TestRunnerPointFailureIsTerminal(t *testing.T) {
	var calls9 atomic.Int32
	e := synthetic(nil)
	inner := e.Run
	e.Run = func(cfg chip.Config, p Point, sc *Scratch) (Result, error) {
		if p.Index == 9 {
			calls9.Add(1)
			return Result{}, errors.New("persistent")
		}
		return inner(cfg, p, sc)
	}
	out, err := Runner{Jobs: 2}.Run(e)
	if err == nil {
		t.Fatal("a failing point did not surface an error")
	}
	var pe *PointError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T, want to unwrap to *PointError: %v", err, err)
	}
	if pe.Index != 9 {
		t.Errorf("PointError index %d, want 9", pe.Index)
	}
	if n := calls9.Load(); n != 1 {
		t.Errorf("failing point ran %d times, want once", n)
	}
	if !strings.Contains(err.Error(), "1 of 16 points failed") {
		t.Errorf("aggregate error lost its failure count: %v", err)
	}
	if len(out.Points) != 15 || out.PointErrors != 1 {
		t.Errorf("partial outcome: %d points, %d point errors; want 15 and 1", len(out.Points), out.PointErrors)
	}
}

// TestRunnerPanicPointError: a panicking closure yields a structured
// PointError with the recovered value, a captured stack, and the point's
// parameters — not just a flattened message.
func TestRunnerPanicPointError(t *testing.T) {
	e := synthetic(nil)
	inner := e.Run
	e.Run = func(cfg chip.Config, p Point, sc *Scratch) (Result, error) {
		if p.Int("x") == 3 && p.Str("series") == "s0" {
			panic("kernel exploded")
		}
		return inner(cfg, p, sc)
	}
	_, err := Runner{Jobs: 4}.Run(e)
	var pe *PointError
	if !errors.As(err, &pe) {
		t.Fatalf("panic did not surface as *PointError: %v", err)
	}
	if pe.PanicValue != "kernel exploded" {
		t.Errorf("PanicValue = %v, want the recovered panic value", pe.PanicValue)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "runner_test") {
		t.Errorf("captured stack does not reach the panicking frame:\n%s", pe.Stack)
	}
	if pe.Index != 3 || pe.Params["series"] != "s0" {
		t.Errorf("PointError lost its point identity: index %d params %v", pe.Index, pe.Params)
	}
}

// TestRunContextCancelPartialOutcome cancels a sweep after its first point
// completes and asserts the contract: an error wrapping the cause, a
// Cancelled outcome holding only completed points at their original
// indices, and no evaluation of abandoned points after the abort.
func TestRunContextCancelPartialOutcome(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	reason := errors.New("operator abort")
	var ran sync.Map
	e := synthetic(nil)
	inner := e.Run
	e.Run = func(cfg chip.Config, p Point, sc *Scratch) (Result, error) {
		ran.Store(p.Index, true)
		if p.Index == 0 {
			res, err := inner(cfg, p, sc)
			cancel(reason) // first point completes, then pulls the plug
			return res, err
		}
		<-sc.Context().Done() // later points observe the abort mid-run
		return Result{}, &chip.CancelError{Cause: context.Cause(sc.Context()), Latency: time.Millisecond}
	}
	out, err := Runner{Jobs: 1}.RunContext(ctx, e)
	if err == nil || !errors.Is(err, reason) {
		t.Fatalf("cancelled sweep returned %v, want error wrapping the cancel cause", err)
	}
	if !out.Cancelled {
		t.Error("outcome not marked Cancelled")
	}
	if len(out.Points) != 1 || out.Points[0].Index != 0 {
		t.Fatalf("partial outcome points = %+v, want exactly point 0", out.Points)
	}
	count := 0
	ran.Range(func(_, _ any) bool { count++; return true })
	if count > 2 {
		t.Errorf("%d points evaluated after cancellation; abandoned points must be skipped", count)
	}
	if out.CancelLatencyMS <= 0 && count == 2 {
		t.Errorf("aborted point's cancel latency not recorded: %+v", out)
	}
}

// TestRunContextPreCancelled: an already-dead context evaluates nothing.
func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	evaluated := false
	e := synthetic(nil)
	inner := e.Run
	e.Run = func(cfg chip.Config, p Point, sc *Scratch) (Result, error) {
		evaluated = true
		return inner(cfg, p, sc)
	}
	out, err := Runner{Jobs: 2}.RunContext(ctx, e)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled sweep returned %v", err)
	}
	if evaluated {
		t.Error("pre-cancelled sweep still evaluated a point")
	}
	if len(out.Points) != 0 || !out.Cancelled {
		t.Errorf("pre-cancelled outcome: %+v", out)
	}
}

// TestScratchContextDefault: a Scratch built outside a runner still serves
// a usable (background) context.
func TestScratchContextDefault(t *testing.T) {
	var sc Scratch
	if sc.Context() == nil || sc.Context().Err() != nil {
		t.Fatal("zero Scratch does not default to a live background context")
	}
}

// TestPoolWorkers pins the worker limit of a pool, which the figures CLI
// prints: jobs <= 0 resolves to GOMAXPROCS. A batch starts no more
// workers than it has points (Submit), so the limit is an upper bound.
func TestPoolWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ jobs, want int }{
		{0, procs},
		{-3, procs},
		{1, 1},
		{64, 64},
	} {
		if got := NewPool(c.jobs).Workers(); got != c.want {
			t.Errorf("NewPool(%d).Workers() = %d, want %d", c.jobs, got, c.want)
		}
	}
}
