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

// Fingerprint accumulates a 64-bit FNV-1a hash over the machine state that
// determines future steady-state behaviour. The chip folds engine, cursor
// and strand state into one; generators contribute their pattern phase
// through Forwardable.PatternPhase.
type Fingerprint uint64

// NewFingerprint returns the hash seeded with the FNV offset basis.
func NewFingerprint() Fingerprint { return 14695981039346656037 }

// Fold mixes one word into the hash.
func (f *Fingerprint) Fold(v uint64) { *f = (*f ^ Fingerprint(v)) * 1099511628211 }

// FoldAddr mixes an address reduced modulo window — the spatial phase that
// determines which bank, controller and line boundary the address hits,
// without pinning its absolute position (which never recurs in a
// streaming kernel). window must be positive; interleave periods are
// powers of two, so the reduction is a mask on that path.
func (f *Fingerprint) FoldAddr(a phys.Addr, window int64) {
	if window&(window-1) == 0 {
		f.Fold(uint64(a) & uint64(window-1))
		return
	}
	f.Fold(uint64(a) % uint64(window))
}

// Forwardable is the optional generator capability behind the machine's
// steady-state fast-forward. A generator that implements it promises that
// within the next UniformRemaining() items its output is a fixed pattern:
// per-item demand, unit and access counts recur with a small per-stream
// period, and every access address advances by a constant per-item stride
// — the conditions under which a detected machine-state period extrapolates
// exactly. Skip(n) must leave the generator in precisely the state n
// Next calls would have, for any n <= UniformRemaining(); the per-generator
// property tests in kernels, jacobi and lbm pin that equivalence.
type Forwardable interface {
	Generator
	// UniformRemaining returns how many upcoming items are guaranteed to
	// continue the current uniform pattern — items up to, but never
	// across, the next irregularity (a chunk, row, segment or sweep
	// boundary, or a partial trailing item).
	UniformRemaining() int64
	// Skip advances past n items without producing them.
	Skip(n int64)
	// ItemStride returns the constant per-item byte advance of every
	// access address within the uniform region — the stride by which the
	// machine shifts a strand's in-flight accesses when it skips items
	// under that strand.
	ItemStride() int64
	// PatternPhase folds the generator's pattern-relevant state into f:
	// upcoming access addresses and tracker state modulo window, plus any
	// discrete mode (grid-toggle parity, pending chunk-entry overhead).
	PatternPhase(f *Fingerprint, window int64)
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

// Set records the line containing addr as the tracked line, exactly as if
// Touch had just accepted it — the state-reconstruction hook Forwardable
// generators use in Skip.
func (t *LineTracker) Set(addr phys.Addr) {
	t.last = phys.LineOf(addr)
	t.valid = true
}

// Phase folds the tracker's state into f: validity plus the tracked line's
// spatial phase modulo window.
func (t *LineTracker) Phase(f *Fingerprint, window int64) {
	if !t.valid {
		f.Fold(0)
		return
	}
	f.Fold(1)
	f.FoldAddr(t.last, window)
}
