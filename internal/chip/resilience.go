// Resilient-execution support: context cancellation wired into the sim
// engine's cooperative stop flag, and the structured error a cancelled run
// fails with.
//
// Design rule: the no-cancel hot path must not change. A run with no
// deadline and no cancelable context takes the same code path as before
// this layer existed — armCancel returns nil and the engine's stop flag
// stays nil (one compare per tie group).
package chip

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// CancelError reports a run aborted by context cancellation. The Result
// returned alongside it carries the telemetry accumulated up to the abort
// point — partial, non-deterministic in general, and useful only for
// accounting; it must never be mixed into a trajectory.
type CancelError struct {
	Cause   error         // context.Cause at abort time
	Latency time.Duration // observed cancel→halt latency
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("chip: run cancelled: %v (halt latency %s)", e.Cause, e.Latency)
}

func (e *CancelError) Unwrap() error { return e.Cause }

// cancelWatch couples a context to one engine's cooperative stop flag. It
// exists only for cancellable runs; armCancel returns nil otherwise and
// every method is nil-safe.
type cancelWatch struct {
	stop    atomic.Bool
	firedAt atomic.Int64 // wall clock (unixnano) when cancellation was observed
	release func() bool  // deregisters fire from the context
}

// armCancel wires ctx into eng. It returns nil — and leaves the engine
// untouched — when the context can never be cancelled.
func armCancel(ctx context.Context, eng *sim.Engine) *cancelWatch {
	if ctx.Done() == nil {
		return nil
	}
	cw := &cancelWatch{}
	eng.SetStop(&cw.stop)
	if ctx.Err() != nil {
		// Already cancelled: set the flag synchronously so even a run
		// shorter than the goroutine AfterFunc would start observes it.
		cw.fire()
		return cw
	}
	cw.release = context.AfterFunc(ctx, cw.fire)
	return cw
}

// fire records the cancellation and raises the stop flag.
func (cw *cancelWatch) fire() {
	cw.firedAt.Store(time.Now().UnixNano())
	cw.stop.Store(true)
}

// done deregisters the cancellation callback; it must be called exactly
// once after the run loop returns.
func (cw *cancelWatch) done() {
	if cw != nil && cw.release != nil {
		cw.release()
	}
}

// abortError builds the CancelError for an interrupted run: the context's
// cause and the observed cancel→halt latency.
func (cw *cancelWatch) abortError(ctx context.Context) *CancelError {
	return &CancelError{Cause: context.Cause(ctx), Latency: time.Since(time.Unix(0, cw.firedAt.Load()))}
}
