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

// TestResetDisarmsStop proves Reset returns the engine to the unarmed
// zero-cost path: a halted engine, once reset, runs to completion and no
// longer consults the stop flag it was armed with.
func TestResetDisarmsStop(t *testing.T) {
	e := chainEngine()
	var stop atomic.Bool
	stop.Store(true)
	e.SetStop(&stop)
	e.Run()
	if !e.Interrupted() {
		t.Fatal("Interrupted() = false after a stopped Run")
	}
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
