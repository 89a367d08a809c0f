package sim

import (
	"sync/atomic"
	"testing"
)

// chainEngine builds an engine whose handler perpetually reschedules event
// 0 one cycle ahead — an unbounded run that only cancellation can end.
func chainEngine() *Engine {
	e := &Engine{}
	e.SetHandler(func(_ Kind, _ int32) {
		e.Schedule(e.Now()+1, 1, 0)
	})
	e.Schedule(0, 1, 0)
	return e
}

// TestStopFlagHaltsRun proves a pre-set stop flag halts Run promptly with
// the pending queue intact and Interrupted reporting the early return.
func TestStopFlagHaltsRun(t *testing.T) {
	e := chainEngine()
	var stop atomic.Bool
	stop.Store(true)
	e.SetStop(&stop)
	e.Run()
	if !e.Interrupted() {
		t.Fatal("Interrupted() = false after a stopped Run")
	}
	if e.Pending() == 0 {
		t.Fatal("stop consumed the pending queue; expected the chain event to survive")
	}
	if e.Steps() > stopPollInterval {
		t.Fatalf("stopped Run executed %d steps; want <= one poll interval (%d)", e.Steps(), stopPollInterval)
	}
}

// TestStopAtBudgetIsDeterministic proves the step budget halts the run at
// a reproducible step count: the poll schedule is a function of the event
// stream, so two identical runs halt at the identical step.
func TestStopAtBudgetIsDeterministic(t *testing.T) {
	const budget = 5000
	run := func() uint64 {
		e := chainEngine()
		e.StopAt(budget)
		e.Run()
		if !e.Interrupted() {
			t.Fatal("Interrupted() = false after a budgeted Run")
		}
		return e.Steps()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("step budget halted at %d then %d; cancellation is not deterministic", a, b)
	}
	if a < budget || a > budget+stopPollInterval {
		t.Fatalf("halted at step %d; want within one poll interval past the budget %d", a, budget)
	}
}

// TestResetDisarmsStop proves Reset returns the engine to the unarmed
// zero-cost path.
func TestResetDisarmsStop(t *testing.T) {
	e := chainEngine()
	e.StopAt(100)
	e.Run()
	e.Reset()
	if e.Interrupted() {
		t.Fatal("Interrupted() survived Reset")
	}
	e.SetHandler(func(_ Kind, _ int32) {})
	e.Schedule(0, 1, 0)
	e.Run()
	if e.Interrupted() || e.Pending() != 0 {
		t.Fatal("reset engine did not run to completion unarmed")
	}
}
