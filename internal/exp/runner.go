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
	"repro/internal/faults"
)

// Runner executes experiments on a pool of Jobs worker goroutines.
// Jobs <= 0 means GOMAXPROCS. Results are always collected in grid order,
// so the worker count never changes the outcome, only the wall time.
//
// Retries re-evaluates a failed point up to that many extra times before
// recording it as failed; points are deterministic in their parameters, so
// this only ever recovers environmental faults (an injected fault plan),
// never masks a harness bug — a point that fails deterministically fails
// all its attempts identically. Backoff is the pause before the first
// retry, doubling each further attempt.
// Pool, when set, supplies the workers' Scratch arenas from a shared
// bounded free list instead of building one per worker per sweep, so a
// long-running caller (the t2simd service) reuses cached machines across
// sweeps. Nil keeps the one-shot behavior.
type Runner struct {
	Jobs    int
	Retries int
	Backoff time.Duration
	Pool    *ScratchPool
}

// PointError is one point's terminal failure: which experiment and point,
// the parameters that select it, how many attempts were spent, and — when
// the closure panicked rather than returning an error — the recovered
// panic value with the goroutine stack captured at recovery. The worker
// that caught it keeps serving the remaining points.
type PointError struct {
	Experiment string
	Index      int
	Params     map[string]any
	Attempts   int
	Err        error
	PanicValue any
	Stack      []byte
}

func (e *PointError) Error() string {
	return fmt.Sprintf("exp: %s: point %d (%s): %v", e.Experiment, e.Index, describeParams(e.Params), e.Err)
}

func (e *PointError) Unwrap() error { return e.Err }

// Run evaluates every kept point of the experiment and returns the
// outcome in deterministic grid order. A panic inside the Run closure is
// captured as a PointError rather than tearing down the pool. If any
// points fail their attempt budget, the returned error wraps the
// lowest-indexed PointError (so error messages are deterministic) and the
// outcome holds only the points that succeeded.
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
	jobs := r.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(pts) {
		jobs = len(pts)
	}

	results := make([]Result, len(pts))
	done := make([]bool, len(pts))
	var (
		mu      sync.Mutex
		errs    []*PointError
		retries int64
	)
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-worker arena: cached machines/programs are never shared
			// between concurrent workers. With a pool the arena is checked
			// out for this sweep only and returned (context cleared) after.
			sc := &Scratch{}
			if r.Pool != nil {
				sc = r.Pool.Get()
				defer r.Pool.Put(sc)
			}
			sc.Ctx = ctx
			for i := range work {
				if ctx.Err() != nil {
					continue // drain without evaluating
				}
				res, used, perr := r.runPoint(ctx, e, pts[i], sc)
				mu.Lock()
				retries += int64(used)
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

	out := Outcome{Experiment: e.Name, Doc: e.Doc, Machine: e.Machine, Retries: retries}
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

// runPoint evaluates one point through the runner's attempt budget,
// backing off (doubling) between attempts. It returns the result, the
// number of retries spent (attempts beyond the first, counted even when
// the point eventually succeeds), and the terminal PointError if the
// budget is exhausted. Cancellation is never retried: once the context is
// done, waiting and re-running can only waste the abort.
func (r Runner) runPoint(ctx context.Context, e Experiment, p Point, sc *Scratch) (Result, int, *PointError) {
	backoff := r.Backoff
	var pe *PointError
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if backoff > 0 {
				select {
				case <-time.After(backoff):
				case <-ctx.Done():
					return Result{}, attempt - 1, pe
				}
				backoff *= 2
			}
			if ctx.Err() != nil {
				return Result{}, attempt - 1, pe
			}
		}
		res, err, pv, stack := attemptPoint(e, p, sc, attempt)
		if err == nil {
			return res, attempt, nil
		}
		pe = &PointError{Experiment: e.Name, Index: p.Index, Params: p.Params,
			Attempts: attempt + 1, Err: err, PanicValue: pv, Stack: stack}
		var ce *chip.CancelError
		if errors.As(err, &ce) || ctx.Err() != nil || attempt >= r.Retries {
			return Result{}, attempt, pe
		}
	}
}

// attemptPoint evaluates one point once, converting a panic in the closure
// into an error so a bad point cannot kill the whole sweep's worker. The
// faults hook runs first so an armed plan can panic or fail the attempt at
// the exact same recovery boundary a real fault would hit.
func attemptPoint(e Experiment, p Point, sc *Scratch, attempt int) (res Result, err error, panicVal any, stack []byte) {
	defer func() {
		if r := recover(); r != nil {
			panicVal = r
			stack = debug.Stack()
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if err := faults.PointFault(p.Index, attempt); err != nil {
		return Result{}, err, nil, nil
	}
	res, err = e.Run(e.Cfg, p, sc)
	return res, err, nil, nil
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

// Run executes the experiment with the default runner (GOMAXPROCS
// workers).
func Run(e Experiment) (Outcome, error) {
	return Runner{}.Run(e)
}

// MustRun executes with the default runner and panics on error. The figure
// harness closures never return errors, so failures here are harness bugs.
func MustRun(e Experiment) Outcome {
	o, err := Run(e)
	if err != nil {
		panic(err)
	}
	return o
}
