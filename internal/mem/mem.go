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
	// "at a time" exactly as Sect. 2.1 describes. 0 disables the limit.
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
// per-request controller selection in Full/Read/Write is an inlined bit
// extraction for the common field mappings.
type System struct {
	cfg        Config
	mapped     phys.Resolved
	ctls       []controller
	fullThresh int64 // QueueDepth * ReadService, 0 when unlimited
}

// New builds a controller system with one controller per mapping target.
func New(cfg Config, mapping phys.Mapping) *System {
	if cfg.ReadService <= 0 || cfg.WriteService <= 0 || cfg.Latency < 0 || cfg.WriteCouple < 0 {
		panic(fmt.Sprintf("mem: invalid config %+v", cfg))
	}
	s := &System{cfg: cfg, mapped: phys.Resolve(mapping), ctls: make([]controller, mapping.Controllers())}
	if cfg.QueueDepth > 0 {
		s.fullThresh = cfg.QueueDepth * cfg.ReadService
	}
	return s
}

// Config returns the timing parameters.
func (s *System) Config() Config { return s.cfg }

// Full reports whether the northbound queue of the controller serving addr
// has no room for another request at time now. Callers must retry later.
func (s *System) Full(now sim.Time, addr phys.Addr) bool {
	return s.FullCtl(now, s.mapped.Controller(addr))
}

// Controller returns the controller index serving addr through the
// devirtualized mapping — the handle a NACK-retry loop caches so its ticks
// skip the address decode.
func (s *System) Controller(addr phys.Addr) int { return s.mapped.Controller(addr) }

// FullCtl is Full for a pre-resolved controller index.
func (s *System) FullCtl(now sim.Time, ctl int) bool {
	if s.fullThresh == 0 {
		return false
	}
	return s.ctls[ctl].north.FreeAt()-now >= s.fullThresh
}

// Read issues a demand or RFO line read arriving at the controller at time
// now and returns the time at which the data is back at the L2.
func (s *System) Read(now sim.Time, addr phys.Addr) sim.Time {
	c := &s.ctls[s.mapped.Controller(addr)]
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
	s.StatsInto(out)
	return out
}

// StatsInto copies the per-controller counters into dst (one entry per
// controller) without allocating.
func (s *System) StatsInto(dst []CtlStats) {
	for i := range s.ctls {
		dst[i] = s.ctls[i].stats
	}
}

// AddStats credits k periods' worth of per-controller counter deltas — the
// accounting half of a fast-forwarded steady-state interval. Channel
// cursor occupancy is forwarded separately through ForEachCursor.
func (s *System) AddStats(k int64, d []CtlStats) {
	for i := range d {
		s.ctls[i].stats.Reads += k * d[i].Reads
		s.ctls[i].stats.Writes += k * d[i].Writes
		s.ctls[i].stats.BusyCycles += k * d[i].BusyCycles
	}
}

// ForEachCursor visits every channel cursor in a fixed order (northbound
// then southbound, per controller) — the enumeration the chip's
// fast-forward uses to snapshot, fingerprint and shift channel state.
func (s *System) ForEachCursor(f func(c *sim.Cursor)) {
	for i := range s.ctls {
		f(&s.ctls[i].north)
		f(&s.ctls[i].south)
	}
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
