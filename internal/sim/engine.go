// Package sim provides the discrete-event backbone of the machine model: a
// deterministic event engine driven by a bounded-horizon hierarchical
// timing wheel, and FCFS resource cursors used to model serialized hardware
// units (memory-controller channels, L2 banks, per-core pipelines) without
// per-cycle stepping.
//
// The engine is single-goroutine by design. Determinism is a hard
// requirement for the reproduction: identical inputs must produce identical
// cycle counts, so ties between events scheduled for the same cycle are
// broken by insertion sequence number.
//
// # Engine contract
//
// The engine supports two event forms that share one priority queue and one
// sequence-number space:
//
//   - Typed events (Schedule): a plain {kind, arg} record dispatched through
//     the handler installed with SetHandler. This is the hot path — pushing
//     a typed event is a bucket append plus a bitmap update, with no
//     closure, no interface boxing, and no per-event heap allocation. The
//     chip's run loop schedules every strand wakeup this way, so
//     steady-state simulation allocates nothing per event.
//   - Closure events (At/After): an arbitrary func(). Convenient for tests
//     and cold setup paths; each call allocates its closure as usual.
//
// Both forms execute strictly in (time, sequence) order.
//
// # Timing wheel
//
// Event delays in the machine model are bounded: a wakeup is at most one
// memory round trip (latency + queueing + turnaround) or one pipeline
// backlog away from now. The queue exploits that as a timing wheel — a
// power-of-two ring of buckets indexed by `when mod slots`, with a
// hierarchical occupancy bitmap (64-way fan-in per level) locating the next
// non-empty bucket in O(levels) word operations. While every pending event
// lies within the wheel's span, each bucket holds events of exactly one
// timestamp, appended — and therefore popped — in sequence order, so no
// comparisons are needed anywhere: Schedule and pop are O(1) ring
// operations. An event scheduled beyond the span grows the wheel (a rare,
// amortized rehash), so the horizon bound is a performance assumption, not
// a correctness requirement.
//
// The previous engine — the same (when, seq) total order on a 4-ary slice
// heap — is retained as a reference implementation behind
// UseReferenceHeap. A differential fuzz test drives random bounded-delay
// schedules through both and asserts identical pop order and identical
// Steps/Pending accounting, which is the proof obligation for swapping the
// structure under a determinism-critical simulator.
package sim

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Time is a simulation timestamp in core clock cycles.
type Time = int64

// Kind identifies a class of typed event; its meaning belongs entirely to
// the engine user, which interprets it in the installed Handler.
type Kind uint8

// Handler dispatches one typed event. It is installed once with SetHandler
// and invoked by Step for every event scheduled through Schedule.
type Handler func(kind Kind, arg int32)

// event is one scheduled entry: 24 bytes, nothing pointer-shaped, so the
// wheel's bucket traffic stays cheap and GC-transparent. Closure events
// are carried out-of-band: their func lives in the engine's closure table
// under the event's sequence number, marked by the reserved ClosureKind.
type event struct {
	when Time
	seq  uint64
	arg  int32
	kind Kind
}

// ClosureKind is the reserved event kind marking closure (At/After)
// events; typed events must use other kinds.
const ClosureKind Kind = 0xFF

// bucket is one wheel slot: the events of a single pending timestamp in
// insertion (= sequence) order. head is the pop position, so a partially
// drained bucket keeps its remaining events without copying.
type bucket struct {
	evs  []event
	head int
}

// minWheelSlots is the initial wheel span in cycles. It comfortably covers
// an L2 hit round trip; the first memory access grows the wheel to its
// steady-state span in one or two rehashes.
const minWheelSlots = 256

// Engine is a discrete-event simulation engine.
// The zero value is ready to use.
type Engine struct {
	now     Time
	seq     uint64
	steps   uint64
	handler Handler

	// Timing wheel (the default queue).
	slots []bucket
	occ   [][]uint64 // occ[0]: one bit per slot; occ[l]: one bit per word of occ[l-1]
	count int
	gen   uint64    // incremented by grow: invalidates in-flight slot handles
	free  [][]event // recycled bucket buffers: live buckets stay O(pending)

	// Closure (At/After) events, keyed by sequence number.
	closures map[uint64]func()

	// Reference 4-ary heap, selected by UseReferenceHeap.
	heapMode bool
	events   []event // 4-ary min-heap ordered by (when, seq)

	// Cooperative cancellation (see SetStop/StopAt). The flag is polled
	// amortized — once per stopPollInterval bucket drains — so an unarmed
	// engine pays two nil/zero compares per tie group and an armed one a
	// fraction of an atomic load per event.
	stop    *atomic.Bool
	stopAt  uint64 // step budget; 0 means none
	checkIn int32  // drains until the next poll
	halted  bool
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// Pending returns the number of scheduled, not yet executed events.
func (e *Engine) Pending() int {
	if e.heapMode {
		return len(e.events)
	}
	return e.count
}

// SetHandler installs the dispatcher for typed events. It must be set
// before the first Schedule'd event executes.
func (e *Engine) SetHandler(h Handler) { e.handler = h }

// stopPollInterval is the number of bucket drains between cooperative
// cancellation polls. It amortizes the atomic load far below measurement
// noise on the event hot path while bounding cancel latency to well under
// a millisecond of wall clock (a tie-group drain is microseconds at most).
const stopPollInterval = 1024

// SetStop installs (or, with nil, removes) a cancellation flag. Run polls
// it cooperatively and returns early once it is set, leaving pending
// events in place; Interrupted reports whether that happened.
// The flag may be set from another goroutine — it is the engine's only
// cross-goroutine input.
func (e *Engine) SetStop(stop *atomic.Bool) {
	e.stop = stop
	e.halted = false
}

// StopAt arms a step budget: Run halts cooperatively once at least steps
// events have executed (checked on the same amortized schedule as the stop
// flag, so the exact halt step is a deterministic function of the event
// stream). 0 disarms. It exists for deterministic cancellation testing —
// fault injection cancels "at step N" reproducibly, where wall-clock
// deadlines cannot.
func (e *Engine) StopAt(steps uint64) {
	e.stopAt = steps
	e.halted = false
}

// Interrupted reports whether the last Run returned early because
// the stop flag or the step budget fired.
func (e *Engine) Interrupted() bool { return e.halted }

// stopPoll is the amortized cancellation check. Unarmed engines take the
// first branch: two compares against zero registers per tie group.
func (e *Engine) stopPoll() bool {
	if e.stop == nil && e.stopAt == 0 {
		return false
	}
	if e.checkIn--; e.checkIn > 0 {
		return false
	}
	e.checkIn = stopPollInterval
	if e.stopAt != 0 && e.steps >= e.stopAt {
		e.halted = true
		return true
	}
	if e.stop != nil && e.stop.Load() {
		e.halted = true
		return true
	}
	return false
}

// UseReferenceHeap switches the engine to the reference 4-ary heap queue.
// It exists for differential testing against the timing wheel and must be
// called while no events are pending.
func (e *Engine) UseReferenceHeap() {
	if e.Pending() != 0 {
		panic("sim: UseReferenceHeap with events pending")
	}
	e.heapMode = true
}

// Reset returns the engine to its initial state while retaining the
// wheel's slot and bucket capacity, so a reused engine schedules without
// reallocating. The queue-structure choice (wheel or reference heap) is
// retained too.
func (e *Engine) Reset() {
	e.gen++
	e.now, e.seq, e.steps, e.handler = 0, 0, 0, nil
	e.events = e.events[:0]
	clear(e.closures)
	for i := range e.slots {
		b := &e.slots[i]
		if b.evs != nil {
			e.release(b)
		}
	}
	for _, lv := range e.occ {
		clear(lv)
	}
	e.count = 0
	e.stop, e.stopAt, e.checkIn, e.halted = nil, 0, 0, false
}

// Schedule enqueues a typed event at absolute time when. It is the
// allocation-free counterpart of At: once the wheel has grown to its
// steady-state span, scheduling costs a bucket append and a bitmap update.
// Scheduling into the past panics, as with At.
func (e *Engine) Schedule(when Time, kind Kind, arg int32) {
	if when < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", when, e.now))
	}
	if kind == ClosureKind {
		panic("sim: event kind 0xFF is reserved for closure events")
	}
	e.seq++
	e.enqueue(event{when: when, seq: e.seq, kind: kind, arg: arg})
}

// At schedules fn to run at absolute time when. Scheduling into the past
// panics: it always indicates a broken timing computation upstream and
// would silently corrupt causality if allowed.
func (e *Engine) At(when Time, fn func()) {
	if when < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", when, e.now))
	}
	e.seq++
	if e.closures == nil {
		e.closures = map[uint64]func(){}
	}
	e.closures[e.seq] = fn
	e.enqueue(event{when: when, seq: e.seq, kind: ClosureKind})
}

// After schedules fn to run d cycles from now. Negative delays panic.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

func (e *Engine) enqueue(ev event) {
	if e.heapMode {
		e.push(ev)
		return
	}
	e.pushWheel(ev)
}

// ---- timing wheel ----------------------------------------------------------

// pushWheel files ev into the slot of its timestamp, growing the wheel if
// the delay exceeds the current span. Because every pending timestamp lies
// within the span, distinct pending timestamps occupy distinct slots, and a
// bucket's append order is its (single-time) sequence order.
func (e *Engine) pushWheel(ev event) {
	d := ev.when - e.now
	if len(e.slots) == 0 || d >= Time(len(e.slots)) {
		e.grow(d)
	}
	s := int(uint64(ev.when) & uint64(len(e.slots)-1))
	b := &e.slots[s]
	if b.head == len(b.evs) {
		if b.evs == nil {
			if n := len(e.free); n > 0 {
				b.evs = e.free[n-1]
				e.free = e.free[:n-1]
			}
		} else {
			b.evs = b.evs[:0]
		}
		b.head = 0
		e.setBit(s)
	}
	b.evs = append(b.evs, ev)
	e.count++
}

// popWheel removes and returns the earliest pending event.
func (e *Engine) popWheel() event {
	s := e.earliestSlot()
	b := &e.slots[s]
	ev := b.evs[b.head]
	b.head++
	if b.head == len(b.evs) {
		e.release(b)
		e.clearBit(s)
	}
	e.count--
	return ev
}

// release returns a drained bucket's buffer to the free list, so the
// number of live buffers tracks the number of concurrently pending
// timestamps instead of the number of wheel slots ever touched.
func (e *Engine) release(b *bucket) {
	if cap(b.evs) > 0 {
		e.free = append(e.free, b.evs[:0])
	}
	b.evs = nil
	b.head = 0
}

// earliestSlot locates the slot holding the earliest pending timestamp.
// Pending timestamps lie in [now, now+slots), so the circular bitmap scan
// starting at now's slot visits them in increasing time order.
func (e *Engine) earliestSlot() int {
	start := int(uint64(e.now) & uint64(len(e.slots)-1))
	if s, ok := e.nextSet(start); ok {
		return s
	}
	s, ok := e.nextSet(0)
	if !ok {
		panic("sim: wheel bitmap empty with events pending")
	}
	return s
}

// setBit marks slot i occupied at every bitmap level.
func (e *Engine) setBit(i int) {
	for l := 0; l < len(e.occ); l++ {
		w, m := i>>6, uint64(1)<<uint(i&63)
		if e.occ[l][w]&m != 0 {
			return
		}
		e.occ[l][w] |= m
		i = w
	}
}

// clearBit marks slot i empty, propagating emptiness up the levels.
func (e *Engine) clearBit(i int) {
	for l := 0; l < len(e.occ); l++ {
		w := i >> 6
		e.occ[l][w] &^= uint64(1) << uint(i&63)
		if e.occ[l][w] != 0 {
			return
		}
		i = w
	}
}

// nextSet returns the lowest occupied slot index >= start, scanning the
// hierarchical bitmap: one masked word probe per level up, then one
// trailing-zeros descent per level down.
func (e *Engine) nextSet(start int) (int, bool) {
	if len(e.occ) == 0 {
		return 0, false
	}
	w := start >> 6
	if m := e.occ[0][w] &^ (uint64(1)<<uint(start&63) - 1); m != 0 {
		return w<<6 + bits.TrailingZeros64(m), true
	}
	idx := w
	for l := 1; l < len(e.occ); l++ {
		ww := idx >> 6
		if m := e.occ[l][ww] &^ (uint64(2)<<uint(idx&63) - 1); m != 0 {
			idx = ww<<6 + bits.TrailingZeros64(m)
			for k := l - 1; k >= 0; k-- {
				idx = idx<<6 + bits.TrailingZeros64(e.occ[k][idx])
			}
			return idx, true
		}
		idx = ww
	}
	return 0, false
}

// grow rebuilds the wheel with a span covering delay d (at least doubling).
// Each occupied bucket holds one timestamp and moves wholesale to its slot
// in the larger wheel; pending timestamps span less than the old slot
// count, so no two buckets collide after the move.
func (e *Engine) grow(d Time) {
	n := len(e.slots)
	if n == 0 {
		n = minWheelSlots
	}
	for Time(n) <= d {
		n <<= 1
	}
	e.gen++
	old := e.slots
	e.slots = make([]bucket, n)
	e.occ = e.occ[:0]
	for w := (n + 63) / 64; ; w = (w + 63) / 64 {
		e.occ = append(e.occ, make([]uint64, w))
		if w == 1 {
			break
		}
	}
	for i := range old {
		b := &old[i]
		if b.head == len(b.evs) {
			continue
		}
		s := int(uint64(b.evs[b.head].when) & uint64(n-1))
		e.slots[s] = *b
		e.setBit(s)
	}
}

// ---- reference 4-ary heap --------------------------------------------------

// The reference queue is a 4-ary min-heap ordered by (when, seq). Sequence
// numbers are unique, so the order is a strict total order and the pop
// sequence does not depend on heap shape or arity.
const heapArity = 4

func (e *Engine) push(ev event) {
	e.events = append(e.events, ev)
	e.siftUp(len(e.events) - 1)
}

func (e *Engine) siftUp(i int) {
	ev := e.events[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		p := &e.events[parent]
		if p.when < ev.when || (p.when == ev.when && p.seq < ev.seq) {
			break
		}
		e.events[i] = *p
		i = parent
	}
	e.events[i] = ev
}

func (e *Engine) siftDown(i int) {
	n := len(e.events)
	ev := e.events[i]
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		last := first + heapArity
		if last > n {
			last = n
		}
		min := first
		mc := &e.events[first]
		for j := first + 1; j < last; j++ {
			c := &e.events[j]
			if c.when < mc.when || (c.when == mc.when && c.seq < mc.seq) {
				min, mc = j, c
			}
		}
		if ev.when < mc.when || (ev.when == mc.when && ev.seq < mc.seq) {
			break
		}
		e.events[i] = *mc
		i = min
	}
	e.events[i] = ev
}

func (e *Engine) popHeap() event {
	ev := e.events[0]
	n := len(e.events) - 1
	e.events[0] = e.events[n]
	e.events = e.events[:n]
	if n > 1 {
		e.siftDown(0)
	}
	return ev
}

// dispatch executes one popped event.
func (e *Engine) dispatch(ev event) {
	e.now = ev.when
	e.steps++
	if ev.kind == ClosureKind {
		fn := e.closures[ev.seq]
		delete(e.closures, ev.seq)
		fn()
	} else {
		e.handler(ev.kind, ev.arg)
	}
}

// ---- execution -------------------------------------------------------------

// Step executes the earliest pending event and returns true, or returns
// false if no events remain.
func (e *Engine) Step() bool {
	var ev event
	if e.heapMode {
		if len(e.events) == 0 {
			return false
		}
		ev = e.popHeap()
	} else {
		if e.count == 0 {
			return false
		}
		ev = e.popWheel()
	}
	e.dispatch(ev)
	return true
}

// Run executes events until none remain. It is Step in a loop, with one
// structural shortcut: all events of the earliest bucket — a tie group
// sharing one timestamp — are drained without re-searching the occupancy
// bitmap between them. NACK convoys synchronize dozens of strands onto the
// same retry cycle, so tie groups are the common case exactly where event
// volume is highest. A wheel growth (or queue-structure change) during a
// handler invalidates the slot handle; the generation counter detects that
// and falls back to a fresh search.
func (e *Engine) Run() {
	if e.heapMode {
		for !e.stopPoll() && e.Step() {
		}
		return
	}
	for e.count > 0 {
		if e.stopPoll() {
			return
		}
		s := e.earliestSlot()
		g := e.gen
		for {
			b := &e.slots[s]
			ev := b.evs[b.head]
			b.head++
			if b.head == len(b.evs) {
				e.release(b)
				e.clearBit(s)
			}
			e.count--
			e.dispatch(ev)
			if e.gen != g {
				break // the wheel was rebuilt under us
			}
			b = &e.slots[s]
			if b.head >= len(b.evs) {
				break // bucket drained (possibly refilled and re-drained)
			}
			// More events share this timestamp (or arrived at it): keep
			// draining — nothing earlier can exist, since scheduling into
			// the past is impossible.
		}
	}
}

// ---- FCFS cursors ----------------------------------------------------------

// Cursor models a serialized FCFS resource such as a memory channel or a
// shared pipeline. Instead of simulating occupancy cycle by cycle, the
// cursor tracks the time at which the resource next becomes free; a request
// arriving at time now and needing dur cycles of service starts at
// max(now, free) and completes dur cycles later. Because the event engine
// delivers requests in nondecreasing time order, the cursor is an exact
// FCFS queue.
//
// The zero value is an idle resource that has never been used.
type Cursor struct {
	free Time
	busy Time
	ops  int64
}

// Acquire reserves the resource for dur cycles for a request arriving at
// now, returning the service start and completion times.
func (c *Cursor) Acquire(now Time, dur Time) (start, done Time) {
	if dur < 0 {
		panic(fmt.Sprintf("sim: negative service duration %d", dur))
	}
	start = now
	if c.free > start {
		start = c.free
	}
	done = start + dur
	c.free = done
	c.busy += dur
	c.ops++
	return start, done
}

// FreeAt returns the earliest time at which the resource is idle.
func (c *Cursor) FreeAt() Time { return c.free }

// Busy returns the total cycles of service the resource has performed.
func (c *Cursor) Busy() Time { return c.busy }

// Ops returns the number of Acquire calls.
func (c *Cursor) Ops() int64 { return c.ops }

// Utilization returns busy time as a fraction of the elapsed horizon.
// It returns 0 for a non-positive horizon.
func (c *Cursor) Utilization(horizon Time) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(c.busy) / float64(horizon)
}

// Reset returns the cursor to its initial idle state.
func (c *Cursor) Reset() { *c = Cursor{} }
