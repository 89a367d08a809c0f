//go:build faultinject

package faults

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// BuildEnabled reports whether this binary was built with the faultinject
// tag and can therefore inject faults at all.
const BuildEnabled = true

// armed is the installed plan; nil (the default) injects nothing even in a
// faultinject build, so the ordinary test suite runs unchanged under the
// tag.
var armed atomic.Pointer[Plan]

// Arm installs the plan (zeroing the counters) so the hooks start
// injecting. Concurrent runs see the plan atomically; tests must not run
// two armed campaigns in parallel.
func Arm(p *Plan) {
	ResetStats()
	armed.Store(p)
}

// Disarm removes the installed plan.
func Disarm() { armed.Store(nil) }

// PointFault is the exp runner's per-attempt hook: for a listed point it
// panics (PanicPoints) or returns ErrInjected (FailPoints) on each leading
// attempt below the plan's PointAttempts, then lets the attempt through.
func PointFault(index, attempt int) error {
	p := armed.Load()
	if p == nil || attempt >= p.failAttempts() {
		return nil
	}
	if contains(p.PanicPoints, index) {
		counters.pointPanics.Add(1)
		panic(fmt.Sprintf("faults: injected panic at point %d attempt %d (seed %#x)", index, attempt, p.Seed))
	}
	if contains(p.FailPoints, index) {
		counters.pointFails.Add(1)
		return fmt.Errorf("%w (point %d attempt %d, seed %#x)", ErrInjected, index, attempt, p.Seed)
	}
	return nil
}

// RequestFault is the service handler's per-request hook: it panics
// mid-request for the listed 1-based request ordinals, exercising the
// daemon's handler-level recovery (500 response, server keeps serving).
func RequestFault(ordinal int) {
	p := armed.Load()
	if p == nil || !contains(p.PanicRequests, ordinal) {
		return
	}
	counters.requestPanics.Add(1)
	panic(fmt.Sprintf("faults: injected panic in request %d (seed %#x)", ordinal, p.Seed))
}

// CacheCorrupt is the result cache's post-insert hook: true tells the
// cache to flip a byte of the stored payload (after its checksum was
// recorded), so the integrity check must reject the entry on its next
// read instead of serving corrupt bytes.
func CacheCorrupt() bool {
	p := armed.Load()
	if p == nil || p.CorruptCachePuts <= 0 {
		return false
	}
	if p.corruptsDone.Add(1) > int64(p.CorruptCachePuts) {
		return false
	}
	counters.cacheCorruptions.Add(1)
	return true
}

// ServiceStall is the service executor's pre-run hook: it stalls an
// admitted sweep for the plan's ServiceStallFor before the simulation
// starts, aborting early if the request's context dies — the wedge that
// drain-deadline tests must cut through.
func ServiceStall(ctx context.Context) {
	p := armed.Load()
	if p == nil || p.ServiceStallFor <= 0 {
		return
	}
	counters.serviceStalls.Add(1)
	t := time.NewTimer(p.ServiceStallFor)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// CancelStep returns the armed step budget for the sequential engine
// (0: none).
func CancelStep() uint64 {
	if p := armed.Load(); p != nil {
		return p.CancelStep
	}
	return 0
}

// NoteStepCancel records that an armed step budget actually halted a run.
func NoteStepCancel() { counters.stepCancels.Add(1) }
