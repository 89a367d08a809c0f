package chip

import (
	"math/bits"

	"repro/internal/phys"
	"repro/internal/sim"
)

// Admission gates.
//
// A strand whose miss finds its controller's queue full is NACKed and
// re-polls every RetryDelay cycles until the queue admits it. Almost every
// such poll loses again, since convoys park dozens of strands on one
// controller, so the polls are not events. The NACKed strand becomes a
// waiter of the controller's gate. It keeps the time of its first NACK
// and the engine label of its next poll (sim.Engine.ChildLabel), so its
// k-th poll sits at (waitFrom + k*RetryDelay, label) in the engine's event
// order, exactly where a chain of real retry events would put it. The
// gate keeps one event armed: the earliest waiter poll at or after the
// controller's admission horizon (mem.System.AdmitAt). No poll before the
// horizon can win, because a channel's free time only grows. A gate that
// fires and still finds the queue full re-arms; one that finds room lets
// its waiter proceed. A waiter whose own line is installed by another
// strand's miss would hit on its next poll, so that poll becomes a real
// event too (installed). Lost polls change nothing but the retry
// counters, which are summed when a waiter leaves (settle).
//
// Waiters are bucketed by phase, waitFrom mod RetryDelay. All waiters of
// one phase poll at the same ticks, and for a horizon h the phases poll in
// cyclic order from h mod RetryDelay. So arming looks at one bucket, not
// at every waiter. A bucket is a list threaded through the strands, so
// waiting allocates nothing.

// gate is one memory controller's admission arbiter.
type gate struct {
	n      int       // waiters
	phases []*strand // first waiter of each phase
	occ    []uint64  // bit p set while phase p has a waiter
	// lines counts the waiters per hashed line, so that an install whose
	// line no waiter wants skips the waiter scan.
	lines  [1 << lineSlotBits]uint16
	armed  bool
	w      *strand // the waiter whose poll the armed gate is
	at     sim.Time
	ticket sim.Ticket
}

const lineSlotBits = 9

func lineSlot(line phys.Addr) int {
	return int(uint64(line) * 0x9E3779B97F4A7C15 >> (64 - lineSlotBits))
}

// newGates builds one gate per controller. A run builds them at its first
// NACK, so a machine whose queues never fill allocates none.
func newGates(controllers int, period int64) []gate {
	gs := make([]gate, controllers)
	words := (period + 63) / 64
	phases := make([]*strand, int64(controllers)*period)
	occ := make([]uint64, int64(controllers)*words)
	for i := range gs {
		gs[i].phases = phases[int64(i)*period : int64(i+1)*period]
		gs[i].occ = occ[int64(i)*words : int64(i+1)*words]
	}
	return gs
}

// reset empties the gate, keeping its buffers.
func (g *gate) reset() {
	clear(g.phases)
	clear(g.occ)
	clear(g.lines[:])
	g.n, g.armed, g.w = 0, false, nil
}

func (g *gate) add(s *strand) {
	p := int(s.waitFrom % int64(len(g.phases)))
	s.phase = p
	s.wPrev, s.wNext = nil, g.phases[p]
	if s.wNext != nil {
		s.wNext.wPrev = s
	}
	g.phases[p] = s
	g.occ[p>>6] |= 1 << uint(p&63)
	g.n++
	g.lines[lineSlot(s.rLine)]++
}

func (g *gate) remove(s *strand) {
	p := s.phase
	if s.wPrev != nil {
		s.wPrev.wNext = s.wNext
	} else {
		g.phases[p] = s.wNext
		if s.wNext == nil {
			g.occ[p>>6] &^= 1 << uint(p&63)
		}
	}
	if s.wNext != nil {
		s.wNext.wPrev = s.wPrev
	}
	s.wPrev, s.wNext = nil, nil
	g.n--
	g.lines[lineSlot(s.rLine)]--
}

// nextPhase returns the first non-empty phase at or cyclically after
// from. The gate must hold a waiter.
func (g *gate) nextPhase(from int) int {
	for base := from; ; base = 0 {
		w := base >> 6
		m := g.occ[w] &^ (1<<uint(base&63) - 1)
		for m == 0 && w+1 < len(g.occ) {
			w++
			m = g.occ[w]
		}
		if m != 0 {
			return w<<6 + bits.TrailingZeros64(m)
		}
	}
}

// wait makes s, NACKed at the current time by controller s.rCtl, a waiter
// of that controller's gate, and moves the gate to s's poll if that is
// the earliest that can win.
func (rs *runState) wait(s *strand) {
	now := rs.eng.Now()
	s.waitFrom = now
	s.label = rs.eng.ChildLabel()
	if rs.gates == nil {
		rs.gates = newGates(rs.cfg.Mapping.Controllers(), rs.cfg.RetryDelay)
	}
	g := &rs.gates[s.rCtl]
	g.add(s)
	rs.waiting++
	if !g.armed {
		rs.arm(s.rCtl)
		return
	}
	at := rs.eng.NextTick(now, rs.mc.AdmitAt(s.rCtl), s.label)
	if at > g.at || (at == g.at && !s.label.Before(g.w.label)) {
		return
	}
	rs.eng.Cancel(g.ticket)
	rs.armAt(s.rCtl, s, at)
}

// arm schedules controller ctl's gate at the earliest poll of any waiter
// at or after the admission horizon. The waiters of one phase poll at that
// phase's first tick at or after the horizon, so the earliest poll is the
// one of the first occupied phase from the horizon's phase on, by the
// smallest label there.
//
// That poll is still ahead of the dispatch position. It can lie in the
// current cycle only if the queue has room now, and so had room all cycle,
// since a full queue stays full until its horizon. Then no waiter joined
// this cycle, as joining takes a NACK, and no waiter's poll in this cycle
// is behind the dispatch position: the gate would have let it in.
func (rs *runState) arm(ctl int) {
	g := &rs.gates[ctl]
	d := len(g.phases)
	lo := max(rs.mc.AdmitAt(ctl), rs.eng.Now())
	p := int(lo % int64(d))
	q := g.nextPhase(p)
	w := g.phases[q]
	for x := w.wNext; x != nil; x = x.wNext {
		if x.label.Before(w.label) {
			w = x
		}
	}
	if q < p {
		q += d
	}
	rs.armAt(ctl, w, lo+int64(q-p))
}

func (rs *runState) armAt(ctl int, w *strand, at sim.Time) {
	g := &rs.gates[ctl]
	g.armed, g.w, g.at = true, w, at
	g.ticket = rs.eng.ScheduleLabelled(at, w.label, evGate, int32(ctl))
}

// fireGate runs the poll the gate of controller ctl stands for. If the
// queue is still full the poll loses, which changes nothing but the lazily
// counted retries, and the gate re-arms; otherwise the waiter leaves and
// proceeds. An admitted waiter commits the miss probe it was NACKed with:
// a second lookup would give the same answer, because its line is still
// absent (installed releases every waiter whose line arrives), a miss
// probe names no way (Commit picks the victim when it runs), and the
// queue has just been found to have room at this very cycle.
func (rs *runState) fireGate(ctl int) {
	g := &rs.gates[ctl]
	w := g.w
	g.armed, g.w = false, nil
	if !rs.mc.Full(rs.eng.Now(), ctl) {
		g.remove(w)
		rs.waiting--
		w.admitted = true
		rs.step(w)
	}
	if !g.armed && g.n > 0 {
		rs.arm(ctl)
	}
}

// installed is called after line, served by controller ctl, was installed
// into the L2 by a miss, while any strand waits. A waiter on that line
// would find it on its next poll and proceed without admission, so it
// leaves the gate and that poll becomes a real event, which probes the
// line again and hits.
func (rs *runState) installed(line phys.Addr, ctl int) {
	g := &rs.gates[ctl]
	if g.lines[lineSlot(line)] == 0 {
		return
	}
	moved := false
	for p := range g.phases {
		for w, next := g.phases[p], (*strand)(nil); w != nil; w = next {
			next = w.wNext
			if w.rLine != line {
				continue
			}
			g.remove(w)
			rs.waiting--
			at := rs.eng.NextTick(w.waitFrom, rs.eng.Now(), w.label)
			rs.eng.ScheduleLabelled(at, w.label, evStep, int32(w.id))
			if g.armed && g.w == w {
				rs.eng.Cancel(g.ticket)
				g.armed, g.w = false, nil
				moved = true
			}
		}
	}
	if moved && g.n > 0 {
		rs.arm(ctl)
	}
}

// settle counts the polls a waiter lost, from its first NACK up to its
// poll at now: one retry of RetryDelay cycles per period.
func (rs *runState) settle(s *strand, now sim.Time) {
	if s.waitFrom < 0 {
		return
	}
	rs.retries += (now - s.waitFrom) / rs.cfg.RetryDelay
	rs.retryStall += now - s.waitFrom
	s.waitFrom = -1
}
