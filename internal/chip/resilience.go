// Resilient-execution support: context cancellation wired into the sim
// engine's cooperative stop flag, and the structured error a cancelled run
// fails with.
//
// Design rule: the fault-free hot path must not change. A run with no
// deadline, no cancelable context and no armed fault plan takes the same
// code path as before this layer existed — armCancel returns nil and the
// engine's stop flag stays nil (two compares per tie group).
package chip

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/sim"
)

// errStepBudget is the cancellation cause when an injected step budget
// (faults.Plan.CancelStep), rather than the caller's context, halted the
// engine.
var errStepBudget = errors.New("chip: run halted by injected step budget")

// CancelError reports a run aborted by context cancellation (or an
// injected deterministic step budget). The Result returned alongside it
// carries the telemetry accumulated up to the abort point — partial,
// non-deterministic in general, and useful only for accounting; it must
// never be mixed into a trajectory.
type CancelError struct {
	Cause   error         // context.Cause at abort time, or errStepBudget
	Latency time.Duration // observed cancel→halt latency (0 when budget-driven)
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("chip: run cancelled: %v (halt latency %s)", e.Cause, e.Latency)
}

func (e *CancelError) Unwrap() error { return e.Cause }

// cancelWatch couples a context (and, under fault injection, a
// deterministic step budget) to one engine's cooperative stop flag. It
// exists only for armed runs; armCancel returns nil otherwise and every
// method is nil-safe.
type cancelWatch struct {
	stop    atomic.Bool
	firedAt atomic.Int64 // wall clock (unixnano) when cancellation was observed
	release chan struct{}
	budget  uint64
}

// armCancel wires ctx into eng. It returns nil — and leaves the engine
// untouched — when the context can never be cancelled and no fault budget
// is armed.
func armCancel(ctx context.Context, eng *sim.Engine) *cancelWatch {
	budget := faults.CancelStep()
	if ctx.Done() == nil && budget == 0 {
		return nil
	}
	cw := &cancelWatch{budget: budget}
	if budget != 0 {
		eng.StopAt(budget)
	}
	if ctx.Done() != nil {
		eng.SetStop(&cw.stop)
		if ctx.Err() != nil {
			// Already cancelled: set the flag synchronously so even a run
			// shorter than the watcher goroutine's first scheduling slice
			// observes it.
			cw.firedAt.Store(time.Now().UnixNano())
			cw.stop.Store(true)
			return cw
		}
		cw.release = make(chan struct{})
		go func() {
			select {
			case <-ctx.Done():
				cw.firedAt.Store(time.Now().UnixNano())
				cw.stop.Store(true)
			case <-cw.release:
			}
		}()
	}
	return cw
}

// done tears the watcher goroutine down; it must be called exactly once
// after the run loop returns.
func (cw *cancelWatch) done() {
	if cw != nil && cw.release != nil {
		close(cw.release)
	}
}

// abortError builds the CancelError for an interrupted run: the context's
// cause and the observed cancel→halt latency, or the step-budget sentinel
// when the injected budget fired first.
func (cw *cancelWatch) abortError(ctx context.Context) *CancelError {
	var lat time.Duration
	if at := cw.firedAt.Load(); at != 0 {
		lat = time.Since(time.Unix(0, at))
	}
	cause := context.Cause(ctx)
	if cause == nil {
		cause = errStepBudget
		faults.NoteStepCancel()
	}
	return &CancelError{Cause: cause, Latency: lat}
}
