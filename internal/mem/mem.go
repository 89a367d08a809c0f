// Package mem models dual-channel FB-DIMM memory controllers — four on
// the T2, but the controller count is taken from the address mapping, so
// machine profiles with one, two or eight controllers reuse the same
// model. FB-DIMM links are unidirectional: reads return on the
// northbound lanes, writes are pushed on the southbound lanes, so each
// controller is modeled as two FCFS channel cursors. Writes additionally
// steal WriteCouple cycles of northbound occupancy (command/turnaround
// overhead on the shared AMB path) — the model of the paper's Sect. 2.1
// conjecture that "at least part of the problem is caused by overhead for
// bidirectional transfers": kernels that mix reads and writebacks pay it,
// load-only kernels do not.
package mem

import (
	"fmt"

	"repro/internal/phys"
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

// System is the set of memory controllers behind the L2. The address
// mapping is devirtualized at construction time (phys.Resolve), so the
// per-request controller selection in Controller and Write is an inlined
// bit extraction for the common field mappings.
type System struct {
	cfg        Config
	mapped     phys.Resolved
	ctls       []controller
	fullThresh int64 // QueueDepth * ReadService
}

// New builds a controller system with one controller per mapping target.
func New(cfg Config, mapping phys.Mapping) *System {
	if cfg.ReadService <= 0 || cfg.WriteService <= 0 || cfg.Latency < 0 || cfg.WriteCouple < 0 || cfg.QueueDepth < 1 {
		panic(fmt.Sprintf("mem: invalid config %+v", cfg))
	}
	return &System{
		cfg:        cfg,
		mapped:     phys.Resolve(mapping),
		ctls:       make([]controller, mapping.Controllers()),
		fullThresh: cfg.QueueDepth * cfg.ReadService,
	}
}

// Config returns the timing parameters.
func (s *System) Config() Config { return s.cfg }

// Controller returns the controller index serving addr through the
// devirtualized mapping. Full and Read take this index, so a miss decodes
// its controller once for the admission check, the read and any waiter
// bookkeeping.
func (s *System) Controller(addr phys.Addr) int { return s.mapped.Controller(addr) }

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

// Write issues a posted line write (a dirty writeback). Nothing waits for
// it; it consumes southbound bandwidth and couples WriteCouple cycles onto
// the northbound channel. The southbound completion time is returned for
// tests.
func (s *System) Write(now sim.Time, addr phys.Addr) sim.Time {
	c := &s.ctls[s.mapped.Controller(addr)]
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

// BusyCycles returns the summed channel occupancy across controllers.
func (s *System) BusyCycles() int64 {
	var t int64
	for i := range s.ctls {
		t += s.ctls[i].stats.BusyCycles
	}
	return t
}

// MaxFreeAt returns the latest time any controller channel is still busy.
func (s *System) MaxFreeAt() sim.Time {
	var t sim.Time
	for i := range s.ctls {
		if f := s.ctls[i].north.FreeAt(); f > t {
			t = f
		}
		if f := s.ctls[i].south.FreeAt(); f > t {
			t = f
		}
	}
	return t
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
func (s *System) Reset() {
	for i := range s.ctls {
		s.ctls[i] = controller{}
	}
}
