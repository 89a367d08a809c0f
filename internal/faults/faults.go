// Package faults is a deterministic, seed-driven fault-injection harness
// for the execution stack. The simulator's recovery machinery — per-point
// panic isolation and retry in exp, the fast-forward rollback checkpoint in
// chip/forward.go, cooperative engine cancellation, and the t2simd
// service's recovery paths — would otherwise only run when something is
// genuinely broken, which is exactly when it must not be exercised for the
// first time. This package lets tests inject each failure class on
// demand, reproducibly.
//
// The hooks (PointFault, FFDecline, CancelStep and the service hooks) are
// compiled to empty inlineable stubs unless the build tag `faultinject` is
// set (BuildEnabled reports which build this is), so production binaries
// and the default test tier carry zero overhead and zero behavior change.
// Under the tag, a test arms a Plan with Arm; unarmed hooks still do
// nothing, so the whole test suite passes under `-tags faultinject` with
// only the fault-injection tests observing injected failures.
//
// Determinism: every injected fault is a pure function of the Plan — which
// points panic, which step cancels — and the Plan's fields are derived
// from a single Seed through a splitmix64 stream (Rand/PickPoints), never
// from wall clock or runtime randomness. A failing injected run reproduces
// from its seed.
package faults

import (
	"errors"
	"sync/atomic"
	"time"
)

// ErrInjected marks an injected transient point failure; the experiment
// runner treats it like any other point error (retryable, reported
// structured).
var ErrInjected = errors.New("faults: injected transient failure")

// Plan is one deterministic injection campaign. The zero value injects
// nothing; tests populate the fields they need (usually via PickPoints and
// friends, so everything traces back to Seed) and install it with Arm.
type Plan struct {
	Seed uint64

	// Point faults (hook: PointFault, called by exp's per-point runner).
	// Listed grid indices fail each attempt below PointAttempts — panicking
	// for PanicPoints, returning ErrInjected for FailPoints — then succeed,
	// which is the shape of a transient fault the runner's bounded retry
	// must absorb. PointAttempts <= 0 means 1 (fail the first attempt only).
	PanicPoints   []int
	FailPoints    []int
	PointAttempts int

	// DeclineJumps forces every validated steady-state fast-forward
	// candidate to be rejected after validation (hook: FFDecline), driving
	// chip/forward.go through its rollback checkpoint path — snapshot,
	// trace replay, restore, stats rewind — on every jump it would have
	// committed. Results must be byte-identical anyway; that is the test.
	DeclineJumps bool

	// CancelStep arms the sequential engine's deterministic step budget
	// (hook: CancelStep → sim.Engine.StopAt): the run halts cooperatively
	// at ~this event step, standing in for a context cancelled mid-run at a
	// reproducible point.
	CancelStep uint64

	// Service tier (hooks: RequestFault, CacheCorrupt, ServiceStall —
	// called by internal/service, the t2simd daemon's engine room).
	// PanicRequests lists 1-based request ordinals whose handler panics
	// mid-request; the server must convert each to a 500 and keep serving.
	// CorruptCachePuts corrupts the stored payload of that many leading
	// result-cache insertions after their checksum is recorded, so the
	// cache's integrity check must reject the entry on the next read —
	// corrupt bytes are never served, they are recomputed. ServiceStallFor
	// stalls every admitted sweep before it executes (cancellably: the
	// stall aborts with the request's context), which is how tests wedge a
	// worker during drain and assert the drain deadline still cancels it.
	PanicRequests    []int
	CorruptCachePuts int
	ServiceStallFor  time.Duration

	corruptsDone atomic.Int64
}

// failAttempts returns the number of leading attempts that fail for a
// listed point.
func (p *Plan) failAttempts() int {
	if p.PointAttempts <= 0 {
		return 1
	}
	return p.PointAttempts
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Rand is a splitmix64 stream: a deterministic pseudo-random uint64 from
// (seed, stream). All seed-derived plan parameters go through it.
func Rand(seed, stream uint64) uint64 {
	z := seed + (stream+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// PickPoints derives k distinct grid indices in [0, total) from the plan's
// seed — the deterministic "which points fail" selector.
func (p *Plan) PickPoints(total, k int) []int {
	if k > total {
		k = total
	}
	picked := make([]int, 0, k)
	for stream := uint64(0); len(picked) < k; stream++ {
		idx := int(Rand(p.Seed, stream) % uint64(total))
		if !contains(picked, idx) {
			picked = append(picked, idx)
		}
	}
	return picked
}

// CancelStepIn derives a step budget in [lo, hi) from the plan's seed —
// the "cancelled at a randomized engine step" selector.
func (p *Plan) CancelStepIn(lo, hi uint64) uint64 {
	if hi <= lo {
		return lo
	}
	return lo + Rand(p.Seed, 0x5CA1AB1E)%(hi-lo)
}

// Counters tallies injections and is the test oracle for "every injected
// fault was observed by the recovery path it targets".
type Counters struct {
	PointPanics      int64 // injected panics delivered
	PointFails       int64 // injected transient errors returned
	FFDeclines       int64 // validated fast-forward jumps forcibly declined
	StepCancels      int64 // engine halts caused by an armed step budget
	RequestPanics    int64 // injected mid-request handler panics
	CacheCorruptions int64 // cache entries corrupted after insertion
	ServiceStalls    int64 // sweep executions stalled before running
}

var counters struct {
	pointPanics      atomic.Int64
	pointFails       atomic.Int64
	ffDeclines       atomic.Int64
	stepCancels      atomic.Int64
	requestPanics    atomic.Int64
	cacheCorruptions atomic.Int64
	serviceStalls    atomic.Int64
}

// Stats returns a snapshot of the injection counters.
func Stats() Counters {
	return Counters{
		PointPanics:      counters.pointPanics.Load(),
		PointFails:       counters.pointFails.Load(),
		FFDeclines:       counters.ffDeclines.Load(),
		StepCancels:      counters.stepCancels.Load(),
		RequestPanics:    counters.requestPanics.Load(),
		CacheCorruptions: counters.cacheCorruptions.Load(),
		ServiceStalls:    counters.serviceStalls.Load(),
	}
}

// ResetStats zeroes the injection counters (Arm does this too).
func ResetStats() {
	counters.pointPanics.Store(0)
	counters.pointFails.Store(0)
	counters.ffDeclines.Store(0)
	counters.stepCancels.Store(0)
	counters.requestPanics.Store(0)
	counters.cacheCorruptions.Store(0)
	counters.serviceStalls.Store(0)
}
