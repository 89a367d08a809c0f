// Package sim provides the discrete-event backbone of the machine model: a
// deterministic event engine driven by a bounded-horizon hierarchical
// timing wheel, and FCFS resource cursors used to model serialized hardware
// units (memory-controller channels, L2 banks, per-core pipelines) without
// per-cycle stepping.
//
// The engine is single-goroutine by design. Determinism is a hard
// requirement for the reproduction: identical inputs must produce identical
// cycle counts, so events of one cycle run in a fixed total order (below).
//
// # Engine contract
//
// Every event (Schedule, ScheduleLabelled) is a plain {kind, arg} record
// dispatched through the one handler installed with SetHandler. Pushing an
// event links a pooled node to its bucket's tail and updates a bitmap,
// with no closure, no interface boxing, and no per-event heap allocation.
// The chip's run loop schedules every strand wakeup this way, so
// steady-state simulation allocates nothing per event.
//
// # Event order and labels
//
// Without a period (SetPeriod), events run in (time, sequence) order, the
// sequence being the order of the Schedule calls. With a period D, the
// events of one cycle T are ordered in three sections:
//
//  1. events scheduled more than D earlier, by sequence;
//  2. events scheduled exactly D earlier, by label (then sequence);
//  3. the rest, by sequence.
//
// A child scheduled with delay exactly D takes its label from where its
// parent sits in the current cycle: a parent in section 1 gives a fresh
// front label, a parent in section 2 passes on its own label, a parent in
// section 3 gives a fresh back label. Fresh front labels sort before every
// label made in an earlier cycle, fresh back labels after all of them,
// and fresh labels of one kind and cycle in the order they were made (a
// label is one integer, ±((now+1)<<20) plus its index in the cycle).
// This is the (time, sequence) order itself. The sequence grows with the
// scheduling time, so sections 1, 2 and 3 of cycle T are already in that
// order, and sections 1 and 3 are sorted by sequence. Section 2 of T holds
// the children of the events dispatched at T-D, and their sequence order
// is their parents' dispatch order. By induction on T, the labels sort the
// same way: front labels of T-D sort before every label that came from
// earlier cycles, back labels after them, and a passed-on label keeps its
// parent's place.
//
// What the labels buy is that a chain of delay-D events need not exist to
// keep its place. A caller can take the label its next delay-D child would
// carry (ChildLabel) and leave the chain out of the queue. Its k-th
// virtual member sits at (t0+kD, section 2, label), because every
// delay-D child in section 2 passes the label on unchanged. Later the
// caller can put a real event back at any of those positions with
// ScheduleLabelled, even while the cycle is being drained, as long as the
// position is still ahead (NextTick finds the next such tick). Cancel
// removes a labelled event again, so the event can move.
//
// One condition keeps a virtual chain in place: no other event may share
// its label. Siblings with one label fall back to sequence order, and a
// skipped member has no place in the sequence. So the chain's parent
// must schedule no other delay-D child, and each real member no more than
// one. The machine model meets this, since every event continues one
// strand. It uses labels for memory-controller admission gates: a strand
// NACKed by a full controller queue would re-poll every D cycles, but it
// keeps a label instead, and the controller schedules only the one poll
// that can win, at the exact place the skipped chain would have put it.
//
// # Timing wheel
//
// Event delays in the machine model are bounded: a wakeup is at most one
// memory round trip (latency + queueing + turnaround) or one pipeline
// backlog away from now. The queue exploits that as a timing wheel — a
// power-of-two ring of buckets indexed by `when mod slots`, with a
// hierarchical occupancy bitmap (64-way fan-in per level) locating the next
// non-empty bucket in O(levels) word operations. While every pending event
// lies within the wheel's span, each bucket holds the events of exactly one
// timestamp, kept sorted by section and label, with ties in the order
// they were pushed, which is the sequence order. A bucket is an 8-byte
// head/tail pair of indices into one pool of event nodes shared by the
// whole wheel, with a free list of nodes. So a slot costs 8 bytes, and the
// event storage follows the number of pending events rather than the span,
// which a few far-off wakeups can stretch to thousands of slots. Almost
// every push links a node at a tail. Only a labelled insert (and a
// section-1 event landing behind one) walks its bucket to the sorted
// place. An event scheduled beyond the span grows the wheel (a rare,
// amortized rehash of the bucket headers), so the horizon bound is a
// performance assumption, not a correctness requirement.
//
// A reference implementation of the same order on a 4-ary slice heap is
// retained behind UseReferenceHeap. A differential fuzz test drives random
// bounded-delay schedules, delay-D chains and labelled inserts through
// both and asserts identical pop order and identical Steps/Pending
// accounting. That test is the proof obligation for the wheel under a
// determinism-critical simulator.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// Time is a simulation timestamp in core clock cycles.
type Time = int64

// Kind identifies a class of event; its meaning belongs entirely to
// the engine user, which interprets it in the installed Handler.
type Kind uint8

// Handler dispatches one event. It is installed once with SetHandler and
// invoked by Step for every event scheduled through Schedule or
// ScheduleLabelled.
type Handler func(kind Kind, arg int32)

// event is one scheduled entry: 24 bytes, nothing pointer-shaped, so the
// wheel's bucket traffic stays cheap and GC-transparent. key is its place
// within its cycle: secFront for section 1, secBack for section 3, the
// label for section 2. Events with equal keys run in the order they were
// scheduled.
type event struct {
	when Time
	key  int64
	arg  int32
	kind Kind
}

// Section keys: every label lies strictly between them.
const (
	secFront int64 = math.MinInt64
	secBack  int64 = math.MaxInt64
)

// A fresh label packs its sign (front or back), the cycle it was made in
// and its index among the fresh labels of that cycle into one integer:
// ±((now+1)<<labelBits) + index.
const labelBits = 20

// Label is the place of a delay-D event within section 2 of its cycle (see
// the package doc). Labels come from ChildLabel; the zero Label is not one.
type Label struct{ key int64 }

// Before reports whether l sorts before m.
func (l Label) Before(m Label) bool { return l.key < m.key }

// Ticket identifies a pending labelled event for Cancel.
type Ticket struct {
	when Time
	key  int64
	arg  int32
	kind Kind
}

// node is one pending event of the wheel. Its timestamp is its bucket's,
// so it is not stored. next links the bucket's list, or the free list.
type node struct {
	key  int64
	arg  int32
	next int32
	kind Kind
}

// bucket is one wheel slot: the list of the events of a single pending
// timestamp, sorted by key and, for equal keys, in insertion order. head
// and tail index the node pool; node 0 is never used, so a zero head is
// an empty bucket.
type bucket struct {
	head, tail int32
}

// minWheelSlots is the initial wheel span in cycles. It comfortably covers
// an L2 hit round trip; the first memory access grows the wheel to its
// steady-state span in one or two rehashes.
const minWheelSlots = 256

// Engine is a discrete-event simulation engine.
// The zero value is ready to use.
type Engine struct {
	now     Time
	seq     uint64 // events scheduled: the reference heap's tie-break
	steps   uint64
	handler Handler
	period  Time  // D of the labelled order; 0 orders by sequence only
	cur     int64 // the dispatch position: the key of the last dispatched event
	// Fresh labels: the cycle (plus one) they were last made in, and how
	// many were made in it.
	freshAt Time
	freshN  int64

	// Timing wheel (the default queue).
	slots []bucket
	occ   [][]uint64 // occ[0]: one bit per slot; occ[l]: one bit per word of occ[l-1]
	count int
	gen   uint64 // incremented by grow: invalidates in-flight slot handles
	nodes []node // the node pool; nodes[0] is the unused nil node
	free  int32  // head of the free node list, 0 when empty

	// Reference 4-ary heap, selected by UseReferenceHeap.
	heapMode bool
	events   []heapEvent // 4-ary min-heap in the engine's total order

	// Cooperative cancellation (see SetStop). The flag is polled amortized
	// — once per stopPollInterval bucket drains — so an unarmed engine pays
	// one nil compare per tie group and an armed one a fraction of an
	// atomic load per event.
	stop    *atomic.Bool
	checkIn int32 // drains until the next poll
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

// SetHandler installs the event dispatcher. It must be set before the
// first event executes.
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

// Interrupted reports whether the last Run returned early because the
// stop flag was set.
func (e *Engine) Interrupted() bool { return e.halted }

// stopPoll is the amortized cancellation check. Unarmed engines take the
// first branch: one nil compare per tie group.
func (e *Engine) stopPoll() bool {
	if e.stop == nil {
		return false
	}
	if e.checkIn--; e.checkIn > 0 {
		return false
	}
	e.checkIn = stopPollInterval
	if e.stop.Load() {
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

// SetPeriod sets the period D of the labelled event order (see the package
// doc); 0, the default, orders each cycle by sequence alone. It must be
// called while no events are pending.
func (e *Engine) SetPeriod(d Time) {
	if e.Pending() != 0 {
		panic("sim: SetPeriod with events pending")
	}
	if d < 0 {
		panic(fmt.Sprintf("sim: negative period %d", d))
	}
	e.period = d
	if e.steps == 0 {
		e.cur = secFront // nothing dispatched: the start of cycle 0
	}
}

// Reset returns the engine to its initial state while retaining the
// wheel's slots and node pool, so a reused engine schedules without
// reallocating. The queue-structure choice (wheel or reference heap) is
// retained too; the period is cleared.
func (e *Engine) Reset() {
	e.gen++
	e.now, e.seq, e.steps, e.handler = 0, 0, 0, nil
	e.period, e.cur, e.freshAt, e.freshN = 0, secFront, 0, 0
	e.events = e.events[:0]
	clear(e.slots)
	if len(e.nodes) > 0 {
		e.nodes = e.nodes[:1]
	}
	e.free = 0
	for _, lv := range e.occ {
		clear(lv)
	}
	e.count = 0
	e.stop, e.checkIn, e.halted = nil, 0, false
}

// Schedule enqueues an event at absolute time when. Once the wheel has
// grown to its steady-state span, scheduling costs a node link at its
// bucket's tail and a bitmap update. Scheduling into the past panics: it
// always indicates a broken timing computation upstream and would
// silently corrupt causality if allowed.
func (e *Engine) Schedule(when Time, kind Kind, arg int32) {
	if when < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", when, e.now))
	}
	e.enqueue(event{when: when, key: e.place(when), kind: kind, arg: arg})
}

// place returns the key of an event scheduled now for time when: its
// section (see the package doc), and its label if its delay is exactly
// the period.
func (e *Engine) place(when Time) int64 {
	switch d := when - e.now; {
	case d < e.period || e.period == 0:
		return secBack
	case d > e.period:
		return secFront
	}
	return e.childLabel()
}

// childLabel is the label of a delay-D child scheduled at the dispatch
// position.
func (e *Engine) childLabel() int64 {
	if e.cur != secFront && e.cur != secBack {
		return e.cur
	}
	if e.freshAt != e.now+1 {
		e.freshAt, e.freshN = e.now+1, 0
	}
	if e.freshN == 1<<labelBits || e.freshAt >= 1<<(62-labelBits) {
		panic("sim: fresh label space exhausted")
	}
	i := e.freshN
	e.freshN++
	if e.cur == secFront {
		return -(e.freshAt << labelBits) + i
	}
	return e.freshAt<<labelBits + i
}

// ChildLabel returns the label that an event scheduled now with delay
// exactly the period would carry. A fresh label is used up by the call,
// so it stays unique even though no event is queued under it.
func (e *Engine) ChildLabel() Label {
	if e.period == 0 {
		panic("sim: ChildLabel without a period")
	}
	return Label{e.childLabel()}
}

// ahead reports whether section 2 of the current cycle at label l is still
// to be dispatched.
func (e *Engine) ahead(l Label) bool {
	return e.cur < l.key
}

// NextTick returns the earliest tick t0+k*D (k >= 1) that is at or after
// lo and whose place (tick, section 2, l) the dispatch has not reached:
// where the next virtual member of a delay-D chain started at t0 with
// label l sits, given that nothing before lo matters.
func (e *Engine) NextTick(t0, lo Time, l Label) Time {
	if lo < e.now {
		lo = e.now
	}
	if lo <= t0 {
		lo = t0 + 1
	}
	tick := t0 + (lo-t0+e.period-1)/e.period*e.period
	if tick == e.now && !e.ahead(l) {
		tick += e.period
	}
	return tick
}

// ScheduleLabelled enqueues an event in section 2 of cycle when under
// label l, whatever the delay, and returns the ticket that cancels it. A
// label in the current cycle must still be ahead of the dispatch position.
func (e *Engine) ScheduleLabelled(when Time, l Label, kind Kind, arg int32) Ticket {
	if when < e.now || (when == e.now && !e.ahead(l)) {
		panic(fmt.Sprintf("sim: labelled event at %d behind the dispatch position (now %d)", when, e.now))
	}
	if l.key == secFront || l.key == secBack {
		panic("sim: invalid labelled event")
	}
	e.enqueue(event{when: when, key: l.key, kind: kind, arg: arg})
	return Ticket{when, l.key, arg, kind}
}

// Cancel removes the pending event that t names: one scheduled with
// ScheduleLabelled for the same time, label, kind and arg. Events that
// share all four are interchangeable, so it does not matter which of them
// goes. It panics if there is none.
func (e *Engine) Cancel(t Ticket) {
	if e.heapMode {
		e.cancelHeap(t)
		return
	}
	if t.when < e.now || t.when-e.now >= Time(len(e.slots)) {
		panic("sim: cancelling an event that is not pending")
	}
	// Every pending timestamp lies in [now, now+slots), so the slot of
	// t.when holds only events of t.when.
	s := int(uint64(t.when) & uint64(len(e.slots)-1))
	b := &e.slots[s]
	prev := int32(0)
	n := b.head
	for n != 0 && e.nodes[n].key < t.key {
		prev, n = n, e.nodes[n].next
	}
	for n != 0 && e.nodes[n].key == t.key && (e.nodes[n].kind != t.kind || e.nodes[n].arg != t.arg) {
		prev, n = n, e.nodes[n].next
	}
	if n == 0 || e.nodes[n].key != t.key {
		panic("sim: cancelling an event that is not pending")
	}
	next := e.nodes[n].next
	if prev == 0 {
		b.head = next
	} else {
		e.nodes[prev].next = next
	}
	if b.tail == n {
		b.tail = prev
	}
	e.freeNode(n)
	e.count--
	if b.head == 0 {
		e.clearBit(s)
	}
}

func (e *Engine) enqueue(ev event) {
	if e.heapMode {
		e.seq++
		e.push(heapEvent{ev, e.seq})
		return
	}
	e.pushWheel(ev)
}

// ---- timing wheel ----------------------------------------------------------

// pushWheel files ev into the slot of its timestamp, growing the wheel if
// the delay exceeds the current span. Because every pending timestamp lies
// within the span, distinct pending timestamps occupy distinct slots. A
// bucket is kept sorted: ev is linked at the tail, or, in the rare case
// that its key is below the tail's, behind the events of equal key.
func (e *Engine) pushWheel(ev event) {
	d := ev.when - e.now
	if len(e.slots) == 0 || d >= Time(len(e.slots)) {
		e.grow(d)
	}
	n := e.allocNode()
	e.nodes[n] = node{key: ev.key, arg: ev.arg, kind: ev.kind}
	e.count++
	s := int(uint64(ev.when) & uint64(len(e.slots)-1))
	b := &e.slots[s]
	switch {
	case b.head == 0:
		b.head, b.tail = n, n
		e.setBit(s)
	case ev.key >= e.nodes[b.tail].key:
		e.nodes[b.tail].next = n
		b.tail = n
	default:
		// Sorted insertion: the tail's key is above ev's, so the walk
		// stops before it and the tail stays.
		prev, cur := int32(0), b.head
		for e.nodes[cur].key <= ev.key {
			prev, cur = cur, e.nodes[cur].next
		}
		e.nodes[n].next = cur
		if prev == 0 {
			b.head = n
		} else {
			e.nodes[prev].next = n
		}
	}
}

// allocNode takes a node from the free list, or grows the pool by one.
func (e *Engine) allocNode() int32 {
	if n := e.free; n != 0 {
		e.free = e.nodes[n].next
		return n
	}
	if len(e.nodes) == 0 {
		e.nodes = append(e.nodes, node{}) // the nil node
	}
	e.nodes = append(e.nodes, node{})
	return int32(len(e.nodes) - 1)
}

// freeNode returns node n to the free list.
func (e *Engine) freeNode(n int32) {
	e.nodes[n].next = e.free
	e.free = n
}

// popSlot removes and returns the first event of occupied slot s, whose
// timestamp is the earliest pending one.
func (e *Engine) popSlot(s int) event {
	b := &e.slots[s]
	n := b.head
	nd := &e.nodes[n]
	ev := event{
		when: e.now + Time((uint64(s)-uint64(e.now))&uint64(len(e.slots)-1)),
		key:  nd.key,
		arg:  nd.arg,
		kind: nd.kind,
	}
	b.head = nd.next
	e.freeNode(n)
	if b.head == 0 {
		e.clearBit(s)
	}
	e.count--
	return ev
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
// Each occupied bucket holds one timestamp, the one in [now, now+old
// slots) that its slot index stands for, and its list moves wholesale to
// that timestamp's slot in the larger wheel; pending timestamps span less
// than the old slot count, so no two buckets collide after the move.
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
	for i, b := range old {
		if b.head == 0 {
			continue
		}
		when := e.now + Time((uint64(i)-uint64(e.now))&uint64(len(old)-1))
		s := int(uint64(when) & uint64(n-1))
		e.slots[s] = b
		e.setBit(s)
	}
}

// ---- reference 4-ary heap --------------------------------------------------

// The reference queue is a 4-ary min-heap in the engine's total order:
// time, key, then scheduling order, which the heap records as a sequence
// number. Sequence numbers are unique, so the order is strict and the pop
// sequence does not depend on heap shape or arity.
const heapArity = 4

type heapEvent struct {
	event
	seq uint64
}

func (a *heapEvent) less(b *heapEvent) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

func (e *Engine) push(ev heapEvent) {
	e.events = append(e.events, ev)
	e.siftUp(len(e.events) - 1)
}

func (e *Engine) siftUp(i int) {
	ev := e.events[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		p := &e.events[parent]
		if p.less(&ev) {
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
			if c.less(mc) {
				min, mc = j, c
			}
		}
		if ev.less(mc) {
			break
		}
		e.events[i] = *mc
		i = min
	}
	e.events[i] = ev
}

func (e *Engine) popHeap() event {
	ev := e.events[0].event
	n := len(e.events) - 1
	e.events[0] = e.events[n]
	e.events = e.events[:n]
	if n > 1 {
		e.siftDown(0)
	}
	return ev
}

// cancelHeap removes an event matching t from the reference heap.
func (e *Engine) cancelHeap(t Ticket) {
	for i := range e.events {
		if e.events[i].event == (event{t.when, t.key, t.arg, t.kind}) {
			n := len(e.events) - 1
			e.events[i] = e.events[n]
			e.events = e.events[:n]
			if i < n {
				e.siftDown(i)
				e.siftUp(i)
			}
			return
		}
	}
	panic("sim: cancelling an event that is not pending")
}

// dispatch executes one popped event.
func (e *Engine) dispatch(ev event) {
	e.now = ev.when
	e.cur = ev.key
	e.steps++
	e.handler(ev.kind, ev.arg)
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
		ev = e.popSlot(e.earliestSlot())
	}
	e.dispatch(ev)
	return true
}

// Run executes events until none remain. It is Step in a loop, with one
// structural shortcut: all events of the earliest bucket — a tie group
// sharing one timestamp — are drained without re-searching the occupancy
// bitmap between them, including events a handler inserts into the bucket
// after the dispatch position. A wheel growth (or queue-structure change)
// during a handler invalidates the slot handle; the generation counter
// detects that and falls back to a fresh search.
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
			e.dispatch(e.popSlot(s))
			if e.gen != g {
				break // the wheel was rebuilt under us
			}
			if e.slots[s].head == 0 {
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
