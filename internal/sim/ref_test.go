package sim

import (
	"fmt"
	"slices"
)

// queue is the engine surface the order tests drive: the timing wheel
// (*Engine) or the reference model (*refEngine).
type queue interface {
	Now() Time
	Steps() uint64
	Pending() int
	position() int64
	SetHandler(Handler)
	SetPeriod(Time)
	Schedule(when Time, kind Kind, arg int32)
	ScheduleLabelled(when Time, l Label, kind Kind, arg int32) Ticket
	ChildLabel() Label
	NextTick(t0, lo Time, l Label) Time
	Cancel(Ticket)
	Step() bool
	Run()
}

// position returns the dispatch position: the key of the last dispatched
// event.
func (e *Engine) position() int64 { return e.cur }

// refEngine is the reference model of the engine's event order: a slice
// kept sorted by (time, key, insertion sequence). It shares with the wheel
// only the rules that give an event its key (place, childLabel, ahead,
// NextTick) and the dispatch state; every queue operation is its own.
// SetPeriod's pending check counts the wheel, which the model leaves
// empty, so a model's period is set before its first event.
type refEngine struct {
	Engine
	q []event
}

func (r *refEngine) Pending() int { return len(r.q) }

func (r *refEngine) Schedule(when Time, kind Kind, arg int32) {
	if when < r.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", when, r.now))
	}
	r.insert(event{when, r.place(when), arg, kind})
}

func (r *refEngine) ScheduleLabelled(when Time, l Label, kind Kind, arg int32) Ticket {
	if when < r.now || (when == r.now && !r.ahead(l)) || l.key == secFront || l.key == secBack {
		panic("sim: labelled event behind the dispatch position or without a label")
	}
	r.insert(event{when, l.key, arg, kind})
	return Ticket{when, l.key, arg, kind}
}

// insert files ev behind every pending event of lower or equal (time,
// key): behind all it was scheduled after.
func (r *refEngine) insert(ev event) {
	i := len(r.q)
	for i > 0 && (r.q[i-1].when > ev.when || r.q[i-1].when == ev.when && r.q[i-1].key > ev.key) {
		i--
	}
	r.q = slices.Insert(r.q, i, ev)
}

func (r *refEngine) Cancel(t Ticket) {
	i := slices.Index(r.q, event(t))
	if i < 0 {
		panic("sim: cancelling an event that is not pending")
	}
	r.q = slices.Delete(r.q, i, i+1)
}

func (r *refEngine) Step() bool {
	if len(r.q) == 0 {
		return false
	}
	ev := r.q[0]
	r.q = r.q[1:]
	r.dispatch(ev)
	return true
}

func (r *refEngine) Run() {
	for r.Step() {
	}
}
