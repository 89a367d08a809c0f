// Package trace defines the interface between kernels and the machine
// model: a kernel compiles, per simulated thread, into a Generator that
// yields work items. A work item is a short burst of execution — typically
// the production of one destination cache line — consisting of the new
// cache-line accesses it triggers (element-level spatial locality is
// folded away here, playing the role of the L1) and the instruction demand
// it places on the core's shared pipelines.
package trace

import (
	"repro/internal/cpu"
	"repro/internal/phys"
)

// Access is a single line-granular memory reference.
type Access struct {
	Addr  phys.Addr
	Write bool // a store: write-allocate (read-for-ownership) then dirty
}

// Item is one unit of strand progress.
type Item struct {
	Acc      []Access   // line accesses, in program order
	Demand   cpu.Demand // instruction demand of the burst
	Units    int64      // completed work units (elements or lattice sites)
	RepBytes int64      // bytes the benchmark *reports* for this burst
}

// Reset empties the item for reuse without freeing its access buffer.
func (it *Item) Reset() {
	it.Acc = it.Acc[:0]
	it.Demand = cpu.Demand{}
	it.Units = 0
	it.RepBytes = 0
}

// Generator produces the work-item stream of one simulated thread.
// Next fills it and returns false when the thread is out of work. The chip
// calls Next in simulation-time order, so generators backed by dynamic
// schedulers see the same grab order a real work queue would.
type Generator interface {
	Next(it *Item) bool
}

// Program is a complete parallel kernel instance: one generator per thread.
type Program struct {
	Label string
	Gens  []Generator
	// WarmLines, if positive, asks the machine to pre-fill the L2 with
	// that many dirty lines of unrelated data before timing starts, so a
	// single sweep measures steady-state capacity-eviction and writeback
	// behaviour (the state a real benchmark reaches after its warm-up
	// iterations).
	WarmLines int64
}

// Threads returns the team size.
func (p *Program) Threads() int { return len(p.Gens) }

// LineTracker deduplicates consecutive accesses to the same line of one
// stream, emulating the spatial-locality filtering a tiny L1 performs on a
// unit-stride stream. The zero value is ready to use.
type LineTracker struct {
	last  phys.Addr
	valid bool
}

// Touch reports whether addr falls on a new line for this stream and
// records it. The first call always reports true.
func (t *LineTracker) Touch(addr phys.Addr) bool {
	line := phys.LineOf(addr)
	if t.valid && line == t.last {
		return false
	}
	t.last = line
	t.valid = true
	return true
}

// Reset forgets the tracked line.
func (t *LineTracker) Reset() { t.valid = false }
