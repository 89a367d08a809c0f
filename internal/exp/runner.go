package exp

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/chip"
)

// Runner executes one experiment at a time on a private Pool of Jobs
// workers; Jobs <= 0 means GOMAXPROCS. Results are always collected in
// grid order, so the worker count never changes the outcome, only the
// wall time. Each point runs once: a point is a pure function of its
// parameters, so a point that fails once would fail every further attempt.
//
// Every sweep gives each worker a fresh Scratch; a machine built in it is
// cheap, as chip writes each run's warm L2 directly (cache.Banked.Warm).
// To run several sweeps on one set of workers, submit them to one Pool.
type Runner struct {
	Jobs int
}

// PointError is one point's failure: which experiment and point, the
// parameters that select it, and — when the closure panicked rather than
// returning an error — the recovered panic value with the goroutine stack
// captured at recovery. The worker that caught it keeps serving the
// remaining points.
type PointError struct {
	Experiment string
	Index      int
	Params     map[string]any
	Err        error
	PanicValue any
	Stack      []byte
}

func (e *PointError) Error() string {
	return fmt.Sprintf("exp: %s: point %d (%s): %v", e.Experiment, e.Index, describeParams(e.Params), e.Err)
}

func (e *PointError) Unwrap() error { return e.Err }

// Run evaluates every kept point of the experiment and returns the
// outcome in deterministic grid order, as Batch.Wait describes.
func (r Runner) Run(e Experiment) (Outcome, error) {
	return r.RunContext(context.Background(), e)
}

// RunContext is Run under a context: the context is exposed to every
// point's closure via Scratch.Context, unstarted points are abandoned the
// moment it is cancelled, and the partial outcome is returned with an
// error wrapping the cancellation cause (Batch.Wait). A background
// context adds nothing to the fault-free path.
func (r Runner) RunContext(ctx context.Context, e Experiment) (Outcome, error) {
	return NewPool(r.Jobs).Submit(ctx, e, 0).Wait()
}

// runPoint evaluates one point, converting a panic in the closure into a
// PointError so a bad point cannot kill the whole sweep's worker.
func runPoint(e Experiment, p Point, sc *Scratch) (res Result, pe *PointError) {
	defer func() {
		if r := recover(); r != nil {
			pe = &PointError{Experiment: e.Name, Index: p.Index, Params: p.Params,
				Err: fmt.Errorf("panic: %v", r), PanicValue: r, Stack: debug.Stack()}
		}
	}()
	res, err := e.Run(e.Cfg, p, sc)
	if err != nil {
		return Result{}, &PointError{Experiment: e.Name, Index: p.Index, Params: p.Params, Err: err}
	}
	return res, nil
}

// cause unwraps the context's cancellation cause, falling back to its
// plain error.
func cause(ctx context.Context) error {
	if c := context.Cause(ctx); c != nil {
		return c
	}
	return ctx.Err()
}

// noteCancelLatency records the largest observed cancel→halt latency among
// the failed points' CancelErrors — the sweep-level answer to "how fast do
// runs actually stop when told to".
func (o *Outcome) noteCancelLatency(errs []*PointError) {
	for _, pe := range errs {
		var ce *chip.CancelError
		if errors.As(pe.Err, &ce) {
			if ms := float64(ce.Latency) / float64(time.Millisecond); ms > o.CancelLatencyMS {
				o.CancelLatencyMS = ms
			}
		}
	}
}

// describeParams renders a point's parameters sorted by name, for error
// text.
func describeParams(params map[string]any) string {
	names := make([]string, 0, len(params))
	for n := range params {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%v", n, params[n])
	}
	return strings.Join(parts, " ")
}
