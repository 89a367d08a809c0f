package chip

import (
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/trace"
)

// pollStep is step without admission gates, kept as the test-only
// reference that FuzzGates compares the gated run loop against. A strand
// NACKed by a full controller queue, at the current time or at a lookahead
// time, schedules a real evStep retry RetryDelay cycles later and counts
// the retry there and then; every retry probes the L2 again. No strand
// ever waits in a gate, so installed and settle have nothing to do, and
// no waiter commits a probe it made earlier.
//
// A retry at the current time is a delay-D child, so the engine gives it
// the label the gated loop keeps for its virtual polls (sim.ChildLabel),
// and each retry passes that label on: this is the chain of real retry
// events whose place the gates claim to keep.
func (rs *runState) pollStep(s *strand) {
	t := rs.eng.Now()
	for {
		if !s.active {
			if rs.overWindow(s) {
				s.parked = true
				rs.parked = append(rs.parked, s)
				return
			}
			s.item.Reset()
			if !s.gen.Next(&s.item) {
				rs.running--
				rs.retire(s)
				if t > rs.finish {
					rs.finish = t
				}
				return
			}
			s.active = true
			s.accIdx = 0
		}
		for s.accIdx < len(s.item.Acc) {
			a := s.item.Acc[s.accIdx]
			line := phys.LineOf(a.Addr)
			probe := rs.l2.ProbeLine(line)
			rs.work.Probes++
			var ctl int
			if !probe.Hit() {
				ctl = probe.Bank() >> rs.ctlShift
				if rs.mc.Full(t, ctl) {
					rs.retryStall += rs.cfg.RetryDelay
					rs.retries++
					rs.eng.Schedule(t+rs.cfg.RetryDelay, evStep, int32(s.id))
					return
				}
			}
			if a.Write {
				if oldest := s.sb[s.sbPos]; oldest > t {
					rs.storeStall += oldest - t
					rs.eng.Schedule(oldest, evStep, int32(s.id))
					return
				}
				proceed, fill := rs.store(t, line, probe, ctl)
				s.sb[s.sbPos] = fill
				s.sbPos = (s.sbPos + 1) % len(s.sb)
				s.accIdx++
				t = proceed
				continue
			}
			if len(s.slots) <= 1 {
				done := rs.load(t, line, probe, ctl)
				s.accIdx++
				rs.loadStall += done - t
				rs.eng.Schedule(done, evStep, int32(s.id))
				return
			}
			best := 0
			for i := 1; i < len(s.slots); i++ {
				if s.slots[i] < s.slots[best] {
					best = i
				}
			}
			if s.slots[best] > t {
				rs.loadStall += s.slots[best] - t
				rs.eng.Schedule(s.slots[best], evStep, int32(s.id))
				return
			}
			s.slots[best] = rs.load(t, line, probe, ctl)
			s.accIdx++
		}
		if len(s.slots) > 1 {
			var max sim.Time
			for i := range s.slots {
				if s.slots[i] > max {
					max = s.slots[i]
				}
			}
			if max > t {
				rs.loadStall += max - t
				rs.eng.Schedule(max, evStep, int32(s.id))
				return
			}
		}
		tc := rs.cores.Compute(t, s.core, s.group, s.item.Demand)
		rs.computeStall += tc - t
		rs.units += s.item.Units
		rs.repBytes += s.item.RepBytes
		rs.bumpItems(s)
		s.active = false
		if tc > t {
			rs.eng.Schedule(tc, evStep, int32(s.id))
			return
		}
	}
}

// newPollingMachine returns a machine whose run loop is pollStep. An
// empty first run builds the machine's run state, whose handler is then
// replaced; every later run computes what a fresh machine would
// (TestMachineReuseIsStateless).
func newPollingMachine(cfg Config) *Machine {
	m := New(cfg)
	m.Run(&trace.Program{Label: "empty", Gens: []trace.Generator{&scripted{}}})
	rs := m.rs
	rs.handler = func(_ sim.Kind, arg int32) { rs.pollStep(rs.strands[arg]) }
	return m
}
