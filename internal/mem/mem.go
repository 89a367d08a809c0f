// Package mem models dual-channel FB-DIMM memory controllers — four on
// the T2, but the controller count is a parameter, so machine profiles
// with one, two or eight controllers reuse the same model. Requests name
// their controller by index: which controller serves a line is fixed by
// the line's L2 bank (phys.ControllerOf), not decided here.
//
// FB-DIMM links are unidirectional: reads return on the northbound lanes,
// writes are pushed on the southbound lanes, so each controller is
// modeled as two FCFS channel cursors. Writes additionally steal
// WriteCouple cycles of northbound occupancy (command/turnaround overhead
// on the shared AMB path) — the model of the paper's Sect. 2.1 conjecture
// that "at least part of the problem is caused by overhead for
// bidirectional transfers": kernels that mix reads and writebacks pay it,
// load-only kernels do not.
package mem

import (
	"fmt"

	"repro/internal/sim"
)

// Config holds controller timing parameters, all in core cycles per
// 64-byte line.
type Config struct {
	ReadService  int64 // northbound occupancy per line read
	WriteService int64 // southbound occupancy per line write
	WriteCouple  int64 // northbound occupancy stolen by each write
	Latency      int64 // pipeline latency added to reads after service
	// QueueDepth is the northbound request-queue capacity. When the queue
	// is full the crossbar NACKs the requester, which must retry. Finite
	// queues are what make address-aliasing convoys persistent: strands
	// rejected together retry together instead of acquiring staggered
	// fair-queue slots, so congruent streams keep hitting one controller
	// "at a time" exactly as Sect. 2.1 describes. It must be at least 1.
	QueueDepth int64
}

// Defaults returns the FB-DIMM channel timings calibrated so that the
// simulated chip lands in the paper's measured ranges (see DESIGN.md
// Sect. 6). The timings are per-channel properties, independent of how
// many controllers an address interleave spreads them over, so every
// machine profile shares them.
func Defaults() Config {
	return Config{ReadService: 15, WriteService: 15, WriteCouple: 4, Latency: 160, QueueDepth: 8}
}

// CtlStats are per-controller traffic counters.
type CtlStats struct {
	Reads      int64
	Writes     int64
	BusyCycles int64 // northbound + southbound occupancy
}

// Lines returns the total number of line transfers.
func (s CtlStats) Lines() int64 { return s.Reads + s.Writes }

type controller struct {
	north sim.Cursor // read-return channel
	south sim.Cursor // write channel
	stats CtlStats
}

// System is the set of memory controllers behind the L2.
type System struct {
	cfg        Config
	ctls       []controller
	fullThresh int64 // QueueDepth * ReadService
}

// New builds a system of the given number of controllers.
func New(cfg Config, controllers int) *System {
	if cfg.ReadService <= 0 || cfg.WriteService <= 0 || cfg.Latency < 0 || cfg.WriteCouple < 0 || cfg.QueueDepth < 1 {
		panic(fmt.Sprintf("mem: invalid config %+v", cfg))
	}
	return &System{
		cfg:        cfg,
		ctls:       make([]controller, controllers),
		fullThresh: cfg.QueueDepth * cfg.ReadService,
	}
}

// Config returns the timing parameters.
func (s *System) Config() Config { return s.cfg }

// Full reports whether the northbound queue of controller ctl has no room
// for another request at time now. Callers must retry later.
func (s *System) Full(now sim.Time, ctl int) bool {
	return s.ctls[ctl].north.FreeAt()-now >= s.fullThresh
}

// AdmitAt returns the admission horizon of controller ctl: the earliest
// time at which Full(t, ctl) could be false. A channel's free time never
// decreases, so every request arriving before the horizon — now or after
// any further traffic — finds the queue full. A retry scheduler can
// therefore skip every poll before it.
func (s *System) AdmitAt(ctl int) sim.Time {
	return s.ctls[ctl].north.FreeAt() - s.fullThresh + 1
}

// Read issues a demand or RFO line read arriving at controller ctl at time
// now and returns the time at which the data is back at the L2.
func (s *System) Read(now sim.Time, ctl int) sim.Time {
	c := &s.ctls[ctl]
	_, done := c.north.Acquire(now, s.cfg.ReadService)
	c.stats.Reads++
	c.stats.BusyCycles += s.cfg.ReadService
	return done + s.cfg.Latency
}

// Write issues a posted line write (a dirty writeback) to controller ctl.
// Nothing waits for it; it consumes southbound bandwidth and couples
// WriteCouple cycles onto the northbound channel. The southbound
// completion time is returned for tests.
func (s *System) Write(now sim.Time, ctl int) sim.Time {
	c := &s.ctls[ctl]
	_, done := c.south.Acquire(now, s.cfg.WriteService)
	if s.cfg.WriteCouple > 0 {
		c.north.Acquire(now, s.cfg.WriteCouple)
	}
	c.stats.Writes++
	c.stats.BusyCycles += s.cfg.WriteService + s.cfg.WriteCouple
	return done
}

// Stats returns a copy of the per-controller counters.
func (s *System) Stats() []CtlStats {
	out := make([]CtlStats, len(s.ctls))
	for i := range s.ctls {
		out[i] = s.ctls[i].stats
	}
	return out
}

// Utilization returns each controller's northbound busy fraction over the
// horizon — the "uniform utilization of all four memory controllers"
// metric. Northbound only: it is the contended resource for the kernels
// studied.
func (s *System) Utilization(horizon sim.Time) []float64 {
	out := make([]float64, len(s.ctls))
	if horizon <= 0 {
		return out
	}
	for i := range s.ctls {
		out[i] = s.ctls[i].north.Utilization(horizon)
	}
	return out
}

// Reset clears all controller state and counters.
func (s *System) Reset() { clear(s.ctls) }
