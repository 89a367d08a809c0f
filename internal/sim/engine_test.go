package sim

import (
	"slices"
	"testing"
	"testing/quick"
)

// record returns the reference model whose handler appends each event's
// arg to the returned slice. The TestEngine* tests use it to pin the basic
// contract on the model; the TestTyped* tests below pin the same on the
// timing wheel.
func record() (queue, *[]int32) {
	e := &refEngine{}
	got := new([]int32)
	e.SetHandler(func(_ Kind, arg int32) { *got = append(*got, arg) })
	return e, got
}

func TestEngineOrdering(t *testing.T) {
	e, got := record()
	e.Schedule(30, 0, 3)
	e.Schedule(10, 0, 1)
	e.Schedule(20, 0, 2)
	e.Run()
	if len(*got) != 3 || (*got)[0] != 1 || (*got)[1] != 2 || (*got)[2] != 3 {
		t.Errorf("execution order %v", *got)
	}
	if e.Now() != 30 {
		t.Errorf("final time %d", e.Now())
	}
}

func TestEngineTieBreakBySequence(t *testing.T) {
	e, got := record()
	for i := int32(0); i < 10; i++ {
		e.Schedule(5, Kind(i%3), i)
	}
	e.Run()
	for i, v := range *got {
		if v != int32(i) {
			t.Fatalf("same-time events ran out of insertion order: %v", *got)
		}
	}
}

func TestEngineEventsScheduledDuringRun(t *testing.T) {
	var e refEngine
	var times []Time
	e.SetHandler(func(_ Kind, arg int32) {
		times = append(times, e.Now())
		if arg < 4 {
			e.Schedule(e.Now()+7, 0, arg+1)
		}
	})
	e.Schedule(0, 0, 0)
	e.Run()
	if len(times) != 5 {
		t.Errorf("ran %d steps", len(times))
	}
	if e.Now() != 28 {
		t.Errorf("final time %d, want 28", e.Now())
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e, _ := record()
	e.Schedule(10, 0, 0)
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling into the past did not panic")
		}
	}()
	e.Schedule(5, 0, 0)
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
// invariant that keeps results independent of how the queue stores events.
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
// steady-state run loop: once the wheel's span and node pool have reached
// their working size, a schedule/step cycle must be allocation-free.
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
	// Grow the wheel to its steady-state working set before measuring.
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

// ---- timing wheel vs reference model ---------------------------------------

// driveBoth runs the same schedule script through the timing wheel and the
// reference model and asserts identical execution traces and identical
// Steps/Pending accounting after every event. The script is a byte
// stream under a period D of 1 to 8 cycles: each executed event takes one
// byte and either schedules a delay-D child (section 2 under its parent's
// label), a follow-up with a bounded delay (section 1 or 3, including zero
// — a same-cycle event — and delays that grow the wheel), a delay-D child
// plus a labelled insert under ChildLabel (which, from a section-2 parent,
// shares the child's time and label), or cancels the newest pending
// labelled event. So ties, sorted inserts behind higher keys, equal-key
// cancels, bucket reuse and scheduling-during-drain are all exercised.
func driveBoth(t *testing.T, seeds []byte, delays []byte) {
	t.Helper()
	type rec struct {
		now  Time
		arg  int32
		kind Kind
	}
	const kLab Kind = 3 // labelled inserts; their arg indexes tickets
	period := Time(seeds[0]%8) + 1
	run := func(e queue) ([]rec, []uint64, []int) {
		var trace []rec
		var steps []uint64
		var pend []int
		var tickets []Ticket
		var live []int32 // tickets of pending labelled events, oldest first
		di := 0
		e.SetPeriod(period)
		e.SetHandler(func(k Kind, arg int32) {
			now := e.Now()
			trace = append(trace, rec{now, arg, k})
			if i := slices.Index(live, arg); k == kLab && i >= 0 {
				live = slices.Delete(live, i, i+1)
			}
			if di >= len(delays) {
				return
			}
			b := delays[di]
			di++
			k2 := Kind(b % 3)
			switch b % 4 {
			case 0:
				e.Schedule(now+period, k2, arg+1)
			case 1:
				e.Schedule(now+period, k2, arg+1)
				l := e.ChildLabel()
				tickets = append(tickets, e.ScheduleLabelled(e.NextTick(now, now+Time(b/4%16), l), l, kLab, int32(len(tickets))))
				live = append(live, int32(len(tickets)-1))
			case 2:
				d := Time(b) * Time(b) // up to ~65k: forces growth
				e.Schedule(now+d, k2, arg+1)
				if d%5 == 0 {
					e.Schedule(now, k2, -arg) // same-cycle tie
				}
			case 3:
				if n := len(live); n > 0 {
					e.Cancel(tickets[live[n-1]])
					live = live[:n-1]
				}
				e.Schedule(now+Time(b/4)%period, k2, arg+1)
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
	wt, ws, wp := run(&Engine{})
	ht, hs, hp := run(&refEngine{})
	if len(wt) != len(ht) {
		t.Fatalf("wheel executed %d events, model %d", len(wt), len(ht))
	}
	for i := range wt {
		if wt[i] != ht[i] {
			t.Fatalf("event %d diverged: wheel %+v, model %+v", i, wt[i], ht[i])
		}
		if ws[i] != hs[i] || wp[i] != hp[i] {
			t.Fatalf("accounting diverged at event %d: wheel steps/pending %d/%d, model %d/%d",
				i, ws[i], wp[i], hs[i], hp[i])
		}
	}
}

// TestWheelHeapDifferential is the equivalence proof for the timing wheel:
// random bounded-delay schedules — including zero delays, same-cycle ties
// and delays that force the wheel to grow — must pop in the identical
// (when, seq) order from the wheel and the sorted-slice model, with
// identical Steps and Pending counters throughout.
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
