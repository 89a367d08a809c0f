package exp

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chip"
)

// flaky fails a point's first n attempts, then succeeds — the transient
// fault a retry budget exists to absorb.
type flaky struct {
	mu       sync.Mutex
	failures map[int]int // point index → failures still to serve
}

func (f *flaky) fail(idx int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failures[idx] > 0 {
		f.failures[idx]--
		return true
	}
	return false
}

// TestRunnerRetryRecoversTransientFault: a point that fails twice and then
// succeeds is recovered by Retries=2, the sweep completes with every
// point, and the outcome's telemetry counts the retries spent.
func TestRunnerRetryRecoversTransientFault(t *testing.T) {
	f := &flaky{failures: map[int]int{5: 2, 11: 1}}
	e := synthetic(nil)
	inner := e.Run
	e.Run = func(cfg chip.Config, p Point, sc *Scratch) (Result, error) {
		if f.fail(p.Index) {
			return Result{}, errors.New("transient")
		}
		return inner(cfg, p, sc)
	}
	out, err := Runner{Jobs: 4, Retries: 2}.Run(e)
	if err != nil {
		t.Fatalf("retryable sweep failed: %v", err)
	}
	if len(out.Points) != 16 {
		t.Fatalf("recovered sweep has %d points, want 16", len(out.Points))
	}
	if out.Retries != 3 {
		t.Errorf("Retries = %d, want 3 (2 for point 5 + 1 for point 11)", out.Retries)
	}
	if out.PointErrors != 0 || out.Cancelled {
		t.Errorf("recovered sweep reports failures: %+v", out)
	}
}

// TestRunnerRetryExhaustion: a point that fails more times than the budget
// surfaces a PointError carrying the attempt count, and the outcome keeps
// the points that did succeed.
func TestRunnerRetryExhaustion(t *testing.T) {
	f := &flaky{failures: map[int]int{9: 100}}
	e := synthetic(nil)
	inner := e.Run
	e.Run = func(cfg chip.Config, p Point, sc *Scratch) (Result, error) {
		if f.fail(p.Index) {
			return Result{}, errors.New("persistent")
		}
		return inner(cfg, p, sc)
	}
	out, err := Runner{Jobs: 2, Retries: 1, Backoff: time.Microsecond}.Run(e)
	if err == nil {
		t.Fatal("exhausted retries did not surface an error")
	}
	var pe *PointError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T, want to unwrap to *PointError: %v", err, err)
	}
	if pe.Index != 9 || pe.Attempts != 2 {
		t.Errorf("PointError = index %d attempts %d, want index 9 attempts 2", pe.Index, pe.Attempts)
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

// TestRunnerWorkers pins the worker count a sweep runs on, which the
// figures CLI prints: Jobs <= 0 resolves to GOMAXPROCS, and no sweep
// starts more workers than it has points.
func TestRunnerWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct {
		jobs, points, want int
	}{
		{0, 1000, procs},
		{-3, 1000, procs},
		{0, 1, 1},
		{64, 8, 8},
		{2, 8, 2},
		{4, 0, 0},
	} {
		if got := (Runner{Jobs: c.jobs}).Workers(c.points); got != c.want {
			t.Errorf("Runner{Jobs: %d}.Workers(%d) = %d, want %d", c.jobs, c.points, got, c.want)
		}
	}
}
