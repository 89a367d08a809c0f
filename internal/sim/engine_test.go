package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	var e Engine
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("execution order %v", got)
	}
	if e.Now() != 30 {
		t.Errorf("final time %d", e.Now())
	}
}

func TestEngineTieBreakBySequence(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events ran out of insertion order: %v", got)
		}
	}
}

func TestEngineEventsScheduledDuringRun(t *testing.T) {
	var e Engine
	count := 0
	var step func()
	step = func() {
		count++
		if count < 5 {
			e.After(7, step)
		}
	}
	e.At(0, step)
	e.Run()
	if count != 5 {
		t.Errorf("ran %d steps", count)
	}
	if e.Now() != 28 {
		t.Errorf("final time %d, want 28", e.Now())
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	var e Engine
	e.At(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling into the past did not panic")
		}
	}()
	e.At(5, func() {})
}

func TestTypedEventsDispatchInOrder(t *testing.T) {
	var e Engine
	var got []int32
	e.SetHandler(func(k Kind, arg int32) {
		if k != 7 {
			t.Fatalf("kind %d, want 7", k)
		}
		got = append(got, arg)
	})
	e.Schedule(30, 7, 3)
	e.Schedule(10, 7, 1)
	e.Schedule(20, 7, 2)
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("execution order %v", got)
	}
	if e.Now() != 30 {
		t.Errorf("final time %d", e.Now())
	}
}

func TestTypedAndClosureEventsShareSequenceSpace(t *testing.T) {
	// Ties at the same timestamp must break by scheduling order across
	// both event forms — the property that makes the typed rewrite of a
	// closure-based run loop bit-identical.
	var e Engine
	var got []int
	e.SetHandler(func(_ Kind, arg int32) { got = append(got, int(arg)) })
	e.Schedule(5, 0, 0)
	e.At(5, func() { got = append(got, 1) })
	e.Schedule(5, 0, 2)
	e.At(5, func() { got = append(got, 3) })
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events ran out of scheduling order: %v", got)
		}
	}
}

func TestTypedEventsScheduledDuringRun(t *testing.T) {
	var e Engine
	count := int32(0)
	e.SetHandler(func(_ Kind, arg int32) {
		count++
		if count < 5 {
			e.Schedule(e.Now()+7, 0, arg)
		}
	})
	e.Schedule(0, 0, 0)
	e.Run()
	if count != 5 {
		t.Errorf("ran %d steps", count)
	}
	if e.Now() != 28 {
		t.Errorf("final time %d, want 28", e.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	var e Engine
	e.SetHandler(func(Kind, int32) {})
	e.Schedule(10, 0, 0)
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling into the past did not panic")
		}
	}()
	e.Schedule(5, 0, 0)
}

// TestHeapOrderProperty drives the engine with adversarial (when, order)
// mixes and checks the pop order is exactly the (when, seq) sort — the
// invariant that keeps results independent of heap shape and arity.
func TestHeapOrderProperty(t *testing.T) {
	f := func(whens []uint8) bool {
		var e Engine
		type rec struct {
			when Time
			seq  int
		}
		var got []rec
		e.SetHandler(func(_ Kind, arg int32) {
			got = append(got, rec{e.Now(), int(arg)})
		})
		for i, w := range whens {
			e.Schedule(Time(w%16), 0, int32(i))
		}
		e.Run()
		if len(got) != len(whens) {
			return false
		}
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			if a.when > b.when || (a.when == b.when && a.seq > b.seq) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTypedEventLoopDoesNotAllocate is the allocation regression for the
// steady-state run loop: once the heap's backing array has reached its
// working capacity, a schedule/step cycle must be allocation-free.
func TestTypedEventLoopDoesNotAllocate(t *testing.T) {
	var e Engine
	live := 0
	e.SetHandler(func(_ Kind, arg int32) {
		live--
		if live < 64 {
			e.Schedule(e.Now()+Time(arg%13)+1, 0, arg)
			live++
		}
	})
	// Grow the heap to its steady-state working set before measuring.
	for i := int32(0); i < 64; i++ {
		e.Schedule(Time(i%7), 0, i)
		live++
	}
	avg := testing.AllocsPerRun(1000, func() {
		e.Step()
	})
	if avg != 0 {
		t.Errorf("steady-state event loop allocates %.2f allocs/step, want 0", avg)
	}
}

func TestCursorFCFS(t *testing.T) {
	var c Cursor
	s, d := c.Acquire(0, 10)
	if s != 0 || d != 10 {
		t.Errorf("first acquire (%d, %d)", s, d)
	}
	s, d = c.Acquire(5, 10) // arrives while busy: queued
	if s != 10 || d != 20 {
		t.Errorf("queued acquire (%d, %d)", s, d)
	}
	s, d = c.Acquire(100, 10) // arrives idle
	if s != 100 || d != 110 {
		t.Errorf("idle acquire (%d, %d)", s, d)
	}
	if c.Busy() != 30 {
		t.Errorf("busy %d", c.Busy())
	}
	if c.Ops() != 3 {
		t.Errorf("ops %d", c.Ops())
	}
}

func TestCursorConservationProperty(t *testing.T) {
	// For nondecreasing arrivals, service is work-conserving: completion
	// of request i is max(arrival_i, completion_{i-1}) + dur_i.
	f := func(gaps []uint8, durs []uint8) bool {
		var c Cursor
		now, prevDone := Time(0), Time(0)
		n := len(gaps)
		if len(durs) < n {
			n = len(durs)
		}
		for i := 0; i < n; i++ {
			now += Time(gaps[i])
			dur := Time(durs[i]%16 + 1)
			start, done := c.Acquire(now, dur)
			wantStart := now
			if prevDone > wantStart {
				wantStart = prevDone
			}
			if start != wantStart || done != wantStart+dur {
				return false
			}
			prevDone = done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCursorUtilization(t *testing.T) {
	var c Cursor
	c.Acquire(0, 25)
	if u := c.Utilization(100); u != 0.25 {
		t.Errorf("utilization %f", u)
	}
	if u := c.Utilization(0); u != 0 {
		t.Errorf("zero-horizon utilization %f", u)
	}
}

// ---- timing wheel vs reference heap ----------------------------------------

// driveBoth runs the same schedule script through a wheel engine and a
// reference-heap engine and asserts identical execution traces and
// identical Steps/Pending accounting after every event. The script is a
// byte stream: each executed event schedules a follow-up with a delay
// drawn from the stream (including zero — a same-cycle event), so ties,
// bucket reuse and scheduling-during-drain are all exercised.
func driveBoth(t *testing.T, seeds []byte, delays []byte) {
	t.Helper()
	type rec struct {
		now  Time
		arg  int32
		kind Kind
	}
	run := func(heap bool) ([]rec, []uint64, []int) {
		var e Engine
		if heap {
			e.UseReferenceHeap()
		}
		var trace []rec
		var steps []uint64
		var pend []int
		di := 0
		e.SetHandler(func(k Kind, arg int32) {
			trace = append(trace, rec{e.Now(), arg, k})
			if di < len(delays) {
				d := Time(delays[di]) * Time(delays[di]) // up to ~65k: forces growth
				k2 := Kind(delays[di] % 3)
				di++
				e.Schedule(e.Now()+d, k2, arg+1)
				if d%5 == 0 {
					e.Schedule(e.Now(), k2, -arg) // same-cycle tie
				}
			}
		})
		for i, s := range seeds {
			e.Schedule(Time(s%64), Kind(s%3), int32(i))
		}
		for e.Step() {
			steps = append(steps, e.Steps())
			pend = append(pend, e.Pending())
		}
		return trace, steps, pend
	}
	wt, ws, wp := run(false)
	ht, hs, hp := run(true)
	if len(wt) != len(ht) {
		t.Fatalf("wheel executed %d events, heap %d", len(wt), len(ht))
	}
	for i := range wt {
		if wt[i] != ht[i] {
			t.Fatalf("event %d diverged: wheel %+v, heap %+v", i, wt[i], ht[i])
		}
		if ws[i] != hs[i] || wp[i] != hp[i] {
			t.Fatalf("accounting diverged at event %d: wheel steps/pending %d/%d, heap %d/%d",
				i, ws[i], wp[i], hs[i], hp[i])
		}
	}
}

// TestWheelHeapDifferential is the equivalence proof for replacing the
// 4-ary heap with the timing wheel: random bounded-delay schedules —
// including zero delays, same-cycle ties and delays that force the wheel
// to grow — must pop in the identical (when, seq) order from both queues,
// with identical Steps and Pending counters throughout.
func TestWheelHeapDifferential(t *testing.T) {
	f := func(seeds []byte, delays []byte) bool {
		if len(seeds) == 0 {
			return true
		}
		if len(seeds) > 64 {
			seeds = seeds[:64]
		}
		if len(delays) > 512 {
			delays = delays[:512]
		}
		driveBoth(t, seeds, delays)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestWheelGrowthPreservesOrder pins the rehash path: events scheduled far
// beyond the initial span force repeated growth while earlier events are
// pending, and the pop order must remain the (when, seq) sort.
func TestWheelGrowthPreservesOrder(t *testing.T) {
	var e Engine
	var got []Time
	e.SetHandler(func(_ Kind, arg int32) { got = append(got, e.Now()) })
	whens := []Time{100, 3, 70000, 511, 70000, 5, 1 << 20, 0}
	for _, w := range whens {
		e.Schedule(w, 0, 0)
	}
	e.Run()
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("pop order regressed across growth: %v", got)
		}
	}
	if len(got) != len(whens) {
		t.Fatalf("executed %d of %d events", len(got), len(whens))
	}
}

// TestEngineResetReuse pins the machine-reuse contract: a reset engine
// must replay an identical schedule with identical times, sequence
// numbering and accounting, without keeping stale events.
func TestEngineResetReuse(t *testing.T) {
	var e Engine
	run := func() []Time {
		var got []Time
		e.SetHandler(func(Kind, int32) { got = append(got, e.Now()) })
		e.Schedule(3, 0, 0)
		e.Schedule(900, 0, 0)
		e.Schedule(3, 0, 0)
		e.Run()
		return got
	}
	a := run()
	stepsA := e.Steps()
	e.Reset()
	if e.Now() != 0 || e.Steps() != 0 || e.Pending() != 0 {
		t.Fatalf("reset left now=%d steps=%d pending=%d", e.Now(), e.Steps(), e.Pending())
	}
	b := run()
	if len(a) != len(b) {
		t.Fatalf("replay executed %d events, want %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay time %d differs: %d vs %d", i, b[i], a[i])
		}
	}
	if e.Steps() != stepsA {
		t.Fatalf("replay steps %d, want %d", e.Steps(), stepsA)
	}
}
