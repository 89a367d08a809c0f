package exp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/chip"
)

// Runner executes experiments on a pool of Jobs worker goroutines.
// Jobs <= 0 means GOMAXPROCS. Results are always collected in grid order,
// so the worker count never changes the outcome, only the wall time.
// Each point runs once: a point is a pure function of its parameters, so a
// point that fails once would fail every further attempt.
//
// Every sweep gives each worker a fresh Scratch; a machine built in it is
// cheap, as chip writes each run's warm L2 directly (cache.Banked.Warm).
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

// Workers returns how many worker goroutines a sweep of points points
// runs on: Jobs, with Jobs <= 0 meaning GOMAXPROCS, capped at the point
// count so no worker starts idle.
func (r Runner) Workers(points int) int {
	jobs := r.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	return min(jobs, points)
}

// Run evaluates every kept point of the experiment and returns the
// outcome in deterministic grid order. A panic inside the Run closure is
// captured as a PointError rather than tearing down the pool. If any
// points fail, the returned error wraps the lowest-indexed PointError (so
// error messages are deterministic) and the outcome holds only the points
// that succeeded.
func (r Runner) Run(e Experiment) (Outcome, error) {
	return r.RunContext(context.Background(), e)
}

// RunContext is Run under a context: the context is exposed to every
// point's closure via Scratch.Context, unstarted points are abandoned the
// moment it is cancelled, and the partial outcome — the points that
// completed before the abort, at their original indices — is returned
// with an error wrapping the cancellation cause. A background context
// adds nothing to the fault-free path.
func (r Runner) RunContext(ctx context.Context, e Experiment) (Outcome, error) {
	if e.Run == nil {
		return Outcome{}, fmt.Errorf("exp: experiment %q has no Run closure", e.Name)
	}
	pts := e.Points()
	jobs := r.Workers(len(pts))

	results := make([]Result, len(pts))
	done := make([]bool, len(pts))
	var (
		mu   sync.Mutex
		errs []*PointError
	)
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-worker arena: cached machines/programs are never shared
			// between concurrent workers.
			sc := &Scratch{Ctx: ctx}
			for i := range work {
				if ctx.Err() != nil {
					continue // drain without evaluating
				}
				res, perr := runPoint(e, pts[i], sc)
				mu.Lock()
				if perr != nil {
					errs = append(errs, perr)
				} else {
					results[i], done[i] = res, true
				}
				mu.Unlock()
			}
		}()
	}
feed:
	for i := range pts {
		select {
		case work <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()

	out := Outcome{Experiment: e.Name, Doc: e.Doc, Machine: e.Machine}
	for i, p := range pts {
		if done[i] {
			out.Points = append(out.Points, PointResult{Index: i, Params: p.Params, Result: results[i]})
		}
	}
	out.PointErrors = int64(len(errs))
	if err := ctx.Err(); err != nil {
		out.Cancelled = true
		out.noteCancelLatency(errs)
		return out, fmt.Errorf("exp: %s: cancelled after %d of %d points: %w",
			e.Name, len(out.Points), len(pts), cause(ctx))
	}
	if len(errs) > 0 {
		out.noteCancelLatency(errs)
		sort.Slice(errs, func(a, b int) bool { return errs[a].Index < errs[b].Index })
		return out, fmt.Errorf("%w (%d of %d points failed)", errs[0], len(errs), len(pts))
	}
	return out, nil
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
