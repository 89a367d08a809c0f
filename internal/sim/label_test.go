package sim

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// chainScript drives an engine with a random but reproducible workload:
// work events that record themselves and spawn children at delays that
// include 0, exactly one period and several periods, plus delay-D chains
// of k members whose last member does the work. A chain can be woken
// early, which makes its next member, counted from the dispatch position,
// the working one.
//
// In "real" mode every chain member is an event. In "virtual" mode a chain
// is one labelled event at its final position, and a wake cancels it and
// re-inserts it at NextTick: the scheme the machine model uses for NACKed
// strands. Both must record the same work in the same order, and the
// virtual mode must pop identically on the wheel and the reference heap.
// With oneD set, an event has at most one child of delay exactly D (a
// chain counts as one), the condition under which a virtual chain keeps
// its place (see the package doc); without it, siblings tie on labels.
type chainScript struct {
	e       *Engine
	virtual bool
	oneD    bool
	period  Time
	rng     uint64
	limit   int

	works  []workRec
	pops   []popRec
	chains []*chain
	nextID int32
}

type chain struct {
	id     int32
	t0     Time
	k      int
	polls  int
	woken  bool
	done   bool
	label  Label
	ticket Ticket
}

type workRec struct {
	now Time
	id  int32
}

// popRec is one dispatch as the engine saw it: time, kind, arg and the
// event's place in its cycle.
type popRec struct {
	now     Time
	kind    Kind
	arg     int32
	key     int64
	steps   uint64
	pending int
}

const (
	kWork Kind = 1
	kPoll Kind = 2
)

func (c *chainScript) draw(n uint64) uint64 {
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	return c.rng % n
}

func (c *chainScript) handle(k Kind, arg int32) {
	if k == kWork {
		c.work(arg)
		return
	}
	ch := c.chains[arg]
	ch.polls++
	if c.virtual || ch.woken || ch.polls == ch.k {
		ch.done = true
		c.work(ch.id)
		return
	}
	c.e.Schedule(c.e.Now()+c.period, kPoll, arg)
}

func (c *chainScript) work(id int32) {
	now := c.e.Now()
	c.works = append(c.works, workRec{now, id})
	if len(c.works) >= c.limit {
		return
	}
	d := c.period
	delays := []Time{0, 1, d - 1, d, d, d, d + 1, 2 * d, 3*d + 2, 40, 300}
	usedD := false
	for n := c.draw(4); n > 0; n-- {
		c.nextID++
		if c.draw(3) == 0 && !(c.oneD && usedD) {
			usedD = true
			ch := &chain{id: c.nextID, t0: now, k: 1 + int(c.draw(5))}
			idx := int32(len(c.chains))
			c.chains = append(c.chains, ch)
			if c.virtual {
				ch.label = c.e.ChildLabel()
				ch.ticket = c.e.ScheduleLabelled(now+Time(ch.k)*d, ch.label, kPoll, idx)
			} else {
				c.e.Schedule(now+d, kPoll, idx)
			}
			continue
		}
		delay := delays[c.draw(uint64(len(delays)))]
		if delay == d {
			if c.oneD && usedD {
				delay = 2 * d
			}
			usedD = true
		}
		c.e.Schedule(now+delay, kWork, c.nextID)
	}
	if c.draw(4) == 0 {
		c.wake(now)
	}
}

// wake picks a pending, not yet woken chain and makes its next member the
// working one.
func (c *chainScript) wake(now Time) {
	var open []*chain
	for _, ch := range c.chains {
		if !ch.done && !ch.woken {
			open = append(open, ch)
		}
	}
	if len(open) == 0 {
		return
	}
	ch := open[c.draw(uint64(len(open)))]
	ch.woken = true
	if !c.virtual {
		return
	}
	at := c.e.NextTick(ch.t0, now, ch.label)
	if final := ch.t0 + Time(ch.k)*c.period; at > final {
		panic(fmt.Sprintf("woken chain's next tick %d after its final member at %d", at, final))
	}
	c.e.Cancel(ch.ticket)
	idx := int32(-1)
	for i, x := range c.chains {
		if x == ch {
			idx = int32(i)
		}
	}
	ch.ticket = c.e.ScheduleLabelled(at, ch.label, kPoll, idx)
}

// runChainScript runs one script to completion and returns its records.
func runChainScript(seed uint64, period Time, virtual, oneD, heap, labelled bool) *chainScript {
	e := &Engine{}
	if heap {
		e.UseReferenceHeap()
	}
	if labelled {
		e.SetPeriod(period)
	}
	c := &chainScript{e: e, virtual: virtual, oneD: oneD, period: period, rng: seed | 1, limit: 400}
	e.SetHandler(func(k Kind, arg int32) {
		c.handle(k, arg)
		c.pops = append(c.pops, popRec{e.Now(), k, arg, e.cur, e.Steps(), -1})
	})
	for i := 0; i < 6; i++ {
		c.nextID++
		e.Schedule(Time(c.draw(2*uint64(period)+1)), kWork, c.nextID)
	}
	for e.Step() {
		c.pops[len(c.pops)-1].pending = e.Pending()
	}
	return c
}

// checkLabelledOrder runs the oracles for one seed and period and returns
// how many events the virtual chains saved.
func checkLabelledOrder(t *testing.T, seed uint64, period Time) int {
	t.Helper()
	// The labelled order is the (time, sequence) order for real events,
	// siblings that tie on a label included.
	real := runChainScript(seed, period, false, false, false, true)
	plain := runChainScript(seed, period, false, false, false, false)
	sameWork(t, "real chains, labelled vs plain order", real.works, plain.works)
	samePops(t, real, runChainScript(seed, period, false, false, true, true))

	// A virtual chain's one event sits where its working member did.
	real = runChainScript(seed, period, false, true, false, true)
	virt := runChainScript(seed, period, true, true, false, true)
	sameWork(t, "virtual vs real chains", virt.works, real.works)
	samePops(t, virt, runChainScript(seed, period, true, true, true, true))
	if len(virt.pops) > len(real.pops) {
		t.Errorf("virtual chains dispatched %d events, real chains %d", len(virt.pops), len(real.pops))
	}
	return len(real.pops) - len(virt.pops)
}

// samePops asserts that the wheel and the reference heap popped the same
// events at the same places, with the same Steps and Pending after each.
func samePops(t *testing.T, wheel, heap *chainScript) {
	t.Helper()
	if len(wheel.pops) != len(heap.pops) {
		t.Fatalf("wheel popped %d events, heap %d", len(wheel.pops), len(heap.pops))
	}
	for i := range wheel.pops {
		if wheel.pops[i] != heap.pops[i] {
			t.Fatalf("pop %d: wheel %+v, heap %+v", i, wheel.pops[i], heap.pops[i])
		}
	}
}

func sameWork(t *testing.T, what string, a, b []workRec) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d work events", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: work %d at %+v vs %+v", what, i, a[i], b[i])
		}
	}
}

// FuzzLabelledOrder checks the labelled event order. Real chains run in the
// same order with and without a period, virtual chains (one labelled event
// each, moved by wakes) do the same work at the same places as real ones,
// and the wheel and the reference heap pop virtual runs identically,
// with equal Steps and Pending after every event.
func FuzzLabelledOrder(f *testing.F) {
	for i, d := range []byte{1, 2, 3, 5, 7, 24, 24, 33} {
		b := make([]byte, 9)
		binary.LittleEndian.PutUint64(b, 0x9E3779B97F4A7C15*uint64(i+1))
		b[8] = d
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 9 {
			return
		}
		period := Time(b[8]%40) + 1
		checkLabelledOrder(t, binary.LittleEndian.Uint64(b), period)
	})
}

// TestLabelledOrderDifferential runs the fuzz oracle over a fixed spread of
// seeds and periods, so every test run covers more than the seed corpus.
func TestLabelledOrderDifferential(t *testing.T) {
	saved := 0
	for i := uint64(1); i <= 200; i++ {
		saved += checkLabelledOrder(t, i*0x2545F4914F6CDD1D, Time(i%30)+1)
		if t.Failed() {
			t.Fatalf("seed index %d", i)
		}
	}
	if saved == 0 {
		t.Error("no seed had a chain member to skip")
	}
}

func TestChildLabelSections(t *testing.T) {
	const d = 10
	var e Engine
	e.SetPeriod(d)
	var got []int32
	e.SetHandler(func(_ Kind, arg int32) {
		got = append(got, arg)
		switch arg {
		case 1: // section 3 of cycle 0: a back label
			e.Schedule(d, 0, 30)
		case 2:
			e.Schedule(d, 0, 31)
		}
	})
	e.Schedule(d, 0, 10) // scheduled before any dispatch: a front label
	e.Schedule(0, 0, 1)
	e.Schedule(0, 0, 2)
	e.Schedule(d+1, 0, 99)
	e.Schedule(d, 0, 11)
	e.Run()
	want := []int32{1, 2, 10, 11, 30, 31, 99}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}

func TestScheduleLabelledBehindPanics(t *testing.T) {
	var e Engine
	e.SetPeriod(5)
	var l Label
	e.SetHandler(func(_ Kind, arg int32) {
		if arg == 1 {
			l = e.ChildLabel() // a back label: the dispatch is in section 3
			defer func() {
				if recover() == nil {
					t.Error("labelled insert behind the dispatch position did not panic")
				}
			}()
			e.ScheduleLabelled(0, l, 0, 2) // section 2 of cycle 0 is already passed
		}
	})
	e.Schedule(0, 0, 1)
	e.Run()
}

func TestCancel(t *testing.T) {
	var e Engine
	e.SetPeriod(4)
	var got []int32
	var tk Ticket
	e.SetHandler(func(_ Kind, arg int32) {
		got = append(got, arg)
		if arg == 1 {
			l := e.ChildLabel()
			tk = e.ScheduleLabelled(8, l, 0, 2)
			e.ScheduleLabelled(12, l, 0, 3)
		}
		if arg == 4 {
			e.Cancel(tk)
		}
	})
	e.Schedule(0, 0, 1)
	e.Schedule(5, 0, 4)
	e.Run()
	if fmt.Sprint(got) != "[1 4 3]" || e.Pending() != 0 {
		t.Fatalf("ran %v with %d pending, want [1 4 3] and none", got, e.Pending())
	}
	defer func() {
		if recover() == nil {
			t.Error("cancelling a dispatched event did not panic")
		}
	}()
	e.Cancel(tk)
}

func TestSetPeriodWithPendingPanics(t *testing.T) {
	var e Engine
	e.Schedule(3, 0, 0)
	defer func() {
		if recover() == nil {
			t.Error("SetPeriod with an event pending did not panic")
		}
	}()
	e.SetPeriod(4)
}
