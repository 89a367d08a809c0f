// Package cache models the T2's shared, banked, write-back L2 cache with
// real tag arrays. Real tags (rather than an analytic hit-rate model) are
// required because two of the paper's observations are capacity/conflict
// effects: the Jacobi solver needs "static,1" scheduling because the 4 MB
// L2 cannot hold one row band per thread when chunks are large
// (Sect. 2.3), and the lattice-Boltzmann kernel collapses when the padded
// domain edge is a multiple of 64 because power-of-two strides thrash the
// sets (Sect. 2.4).
package cache

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/phys"
)

// Config describes a banked set-associative cache.
type Config struct {
	SizeBytes int64 // total capacity
	Ways      int   // associativity
	LineSize  int64 // line size in bytes
	Banks     int   // number of banks; must match the mapping's bank count
}

// Derive returns the cache geometry for a machine with the given mapping:
// the bank count is the mapping's, so the cache and the controllers agree
// by construction. The machine-profile registry (internal/machine) builds
// every profile's L2 through this instead of a per-chip constant.
func Derive(sizeBytes int64, ways int, mapping phys.Mapping) Config {
	return Config{SizeBytes: sizeBytes, Ways: ways, LineSize: phys.LineSize, Banks: mapping.Banks()}
}

// Stats aggregates cache activity counters.
type Stats struct {
	Hits       int64
	Misses     int64
	Writebacks int64 // dirty evictions
}

// HitRate returns hits / (hits+misses), or 0 if there were no accesses.
func (s Stats) HitRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

// Result reports the outcome of a single line access.
type Result struct {
	Hit         bool
	Victim      phys.Addr // line address of the evicted victim, if any
	VictimDirty bool      // victim must be written back
}

// Banked is a banked, set-associative, write-allocate, write-back cache
// with LRU replacement. Bank selection is delegated to the machine's
// address mapping so that the cache and the controllers stay consistent;
// the mapping is devirtualized at construction time (phys.Resolve), so the
// common bit-field mappings cost no interface call per access.
//
// The tag store is a flat structure-of-arrays layout: a probe scans the
// set's Ways contiguous tags (two cache lines for the 16-way T2 L2)
// instead of striding over per-way records, and per-way valid/dirty flags
// are bitmasks in one word per set. Building a cache is three large
// allocations, not one tiny slice per set.
type Banked struct {
	cfg         Config
	mapping     phys.Mapping
	mapped      phys.Resolved
	setsPerBank int
	setShift    uint
	tagShift    uint
	bankInsert  bool // bank bits sit directly above the line offset
	// Wide-granule indexing: when a field mapping's bank bits sit above
	// the line offset (a coarse interleave, granule > one line), the set
	// and tag are taken from the line index with the bank field excised,
	// so (bank, set, tag) stays bijective with the line address. gBits is
	// the width of the line-within-granule field; wideShift is the bit
	// position just above the bank field.
	wide      bool
	gBits     uint
	wideShift uint
	lineBits  uint
	setBits   uint
	bankShift uint
	tags      []uint64 // [set*Ways + way]
	used      []uint64 // [set*Ways + way] LRU stamps
	valid     []uint64 // per-set way bitmask
	dirty     []uint64 // per-set way bitmask
	// ptags packs one byte of each way's tag per set (ptagStride words per
	// set), so a probe can reject a set in two SWAR comparisons instead of
	// scanning Ways full tags — the common case for streaming kernels,
	// whose demand accesses virtually always miss. A byte match is only a
	// candidate: the full tag and valid bit still decide.
	ptags      []uint64
	ptagStride int
	// vers counts installs (miss commits) per set. A probe of a missing
	// line stays valid exactly as long as its set's install count is
	// unchanged — the guard that lets the chip's NACK-retry loop skip
	// re-probing on every tick.
	vers []uint32
	// clocks are per-bank LRU stamp counters. LRU only ever compares stamps
	// within one set, and a set's commits are a subsequence of its bank's,
	// so per-bank clocks preserve exactly the victim choices a single global
	// clock would make. Counters are per-bank too; Stats sums them.
	clocks    []uint64
	bankStats []Stats
}

// New builds a cache from cfg using mapping for bank selection. It panics
// on geometrically impossible configurations, since every experiment
// depends on the geometry being exactly as configured.
func New(cfg Config, mapping phys.Mapping) *Banked {
	if cfg.Banks != mapping.Banks() {
		panic(fmt.Sprintf("cache: %d banks configured but mapping %q has %d", cfg.Banks, mapping.Name(), mapping.Banks()))
	}
	if cfg.LineSize <= 0 || cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic(fmt.Sprintf("cache: line size %d not a power of two", cfg.LineSize))
	}
	lines := cfg.SizeBytes / cfg.LineSize
	if lines <= 0 || cfg.Ways <= 0 || int64(cfg.Ways) > lines {
		panic(fmt.Sprintf("cache: impossible geometry %+v", cfg))
	}
	if cfg.Ways > 64 {
		panic(fmt.Sprintf("cache: associativity %d exceeds the 64-way limit of the bitmask tag store", cfg.Ways))
	}
	setsTotal := lines / int64(cfg.Ways)
	if setsTotal%int64(cfg.Banks) != 0 {
		panic(fmt.Sprintf("cache: %d sets do not divide across %d banks", setsTotal, cfg.Banks))
	}
	perBank := setsTotal / int64(cfg.Banks)
	if perBank&(perBank-1) != 0 {
		panic(fmt.Sprintf("cache: %d sets per bank not a power of two", perBank))
	}
	// The bank is selected by the mapping (bits 8:6 on the T2); the set
	// within a bank is indexed by the address bits immediately above the
	// bank-selection field, i.e. starting at bit 9 on the T2.
	bankBits := bits.Len(uint(cfg.Banks - 1))
	setShift := uint(bits.TrailingZeros64(uint64(cfg.LineSize))) + uint(bankBits)
	c := &Banked{
		cfg:         cfg,
		mapping:     mapping,
		mapped:      phys.Resolve(mapping),
		setsPerBank: int(perBank),
		setShift:    setShift,
		tagShift:    setShift + uint(bits.Len(uint(perBank-1))),
		tags:        make([]uint64, setsTotal*int64(cfg.Ways)),
		used:        make([]uint64, setsTotal*int64(cfg.Ways)),
		valid:       make([]uint64, setsTotal),
		dirty:       make([]uint64, setsTotal),
		ptagStride:  (cfg.Ways + 7) / 8,
		clocks:      make([]uint64, cfg.Banks),
		bankStats:   make([]Stats, cfg.Banks),
	}
	c.ptags = make([]uint64, setsTotal*int64(c.ptagStride))
	c.vers = make([]uint32, setsTotal)
	c.lineBits = uint(bits.TrailingZeros64(uint64(cfg.LineSize)))
	c.setBits = uint(bits.Len(uint(perBank - 1)))
	if fs, fm, ok := c.mapped.BankField(); ok {
		c.bankShift = uint(fs)
		switch {
		case fs == uint64(c.lineBits) && fm == uint64(cfg.Banks-1):
			c.bankInsert = true
		case fs > uint64(c.lineBits):
			// Coarse interleave: the bank field sits above the line offset.
			// The default scheme would fold all lines of a granule onto one
			// (set, tag), so switch to the excised-field indexing. Requires
			// the declared field to cover the whole global bank index.
			if fm != uint64(cfg.Banks-1) {
				panic(fmt.Sprintf("cache: mapping %q declares a partial bank field (mask %#x for %d banks)", mapping.Name(), fm, cfg.Banks))
			}
			c.wide = true
			c.gBits = uint(fs) - c.lineBits
			c.wideShift = uint(fs) + uint(bankBits)
		}
	}
	return c
}

// Config returns the cache geometry.
func (c *Banked) Config() Config { return c.cfg }

// SetsPerBank returns the number of sets in each bank.
func (c *Banked) SetsPerBank() int { return c.setsPerBank }

// locate computes the bank, global set index and tag of a line with exactly
// one bank computation — the mapping is consulted once per access, through
// the devirtualized handle. Line-granule machines (the T2 and every hashed
// mapping) take the two-shift fast path; coarse interleaves excise the
// bank field from the line index first so distinct lines of one granule
// keep distinct (set, tag) pairs.
func (c *Banked) locate(line phys.Addr) (bank, setIdx int, tag uint64) {
	bank = c.mapped.Bank(line)
	if !c.wide {
		set := (uint64(line) >> c.setShift) & uint64(c.setsPerBank-1)
		return bank, bank*c.setsPerBank + int(set), uint64(line) >> c.tagShift
	}
	idx := uint64(line)>>c.wideShift<<c.gBits | uint64(line)>>c.lineBits&(1<<c.gBits-1)
	set := idx & uint64(c.setsPerBank-1)
	return bank, bank*c.setsPerBank + int(set), idx >> c.setBits
}

// Probe is the outcome of a non-mutating tag lookup: which bank serves the
// line, whether it hit, and where the line lives (or would be installed).
// It lets the chip fold the controller-queue NACK admission check and the
// state-mutating access into a single tag-array scan: ProbeLine once,
// decide, then Commit. A Probe is only valid until the next mutating access
// to the cache.
type Probe struct {
	Hit  bool
	Bank int
	set  int32
	way  int32 // index of the hit way; -1 on a miss
	tag  uint64
}

// SWAR byte-search constants (one bit per byte lane).
const (
	swarLo = 0x0101010101010101
	swarHi = 0x8080808080808080
)

// ProbeLine looks up the line containing addr without changing any cache
// state (no LRU update, no fill, no counters). The packed partial tags
// reject most missing lines in ptagStride word comparisons; only byte-lane
// matches fall through to full tag-and-valid verification.
func (c *Banked) ProbeLine(addr phys.Addr) Probe {
	line := phys.LineOf(addr)
	bank, setIdx, tag := c.locate(line)
	base := setIdx * c.cfg.Ways
	needle := (tag & 0xff) * swarLo
	pbase := setIdx * c.ptagStride
	for w := 0; w < c.ptagStride; w++ {
		x := c.ptags[pbase+w] ^ needle
		m := (x - swarLo) &^ x & swarHi
		for m != 0 {
			i := w*8 + bits.TrailingZeros64(m)/8
			m &= m - 1
			if i >= c.cfg.Ways {
				break
			}
			if c.tags[base+i] == tag && c.valid[setIdx]&(1<<uint(i)) != 0 {
				return Probe{Hit: true, Bank: bank, set: int32(setIdx), way: int32(i), tag: tag}
			}
		}
	}
	return Probe{Bank: bank, set: int32(setIdx), way: -1, tag: tag}
}

// Commit applies the access described by a Probe: on a hit it touches LRU
// and dirtiness; on a miss it installs the line over the LRU victim and
// reports a dirty victim for writeback. The probe must come from the
// immediately preceding ProbeLine with no intervening mutating access.
func (c *Banked) Commit(p Probe, write bool) Result {
	setIdx := int(p.set)
	base := setIdx * c.cfg.Ways
	c.clocks[p.Bank]++
	stamp := c.clocks[p.Bank]
	if p.way >= 0 {
		c.used[base+int(p.way)] = stamp
		if write {
			c.dirty[setIdx] |= 1 << uint(p.way)
		}
		c.bankStats[p.Bank].Hits++
		return Result{Hit: true}
	}

	// Miss: pick the victim with the semantics of the historical scan —
	// the first invalid way at index >= 1 if any (the scan broke there
	// before ever comparing stamps), else way 0 if invalid (its zero stamp
	// beats every valid way's), else the LRU way. The two invalid cases
	// reduce to bit tricks on the valid mask; only a genuinely full set
	// pays the stamp scan.
	vm := c.valid[setIdx]
	used := c.used[base : base+c.cfg.Ways]
	victim := 0
	if inv := ^vm &^ 1 & (1<<uint(c.cfg.Ways) - 1); inv != 0 {
		victim = bits.TrailingZeros64(inv)
	} else if vm&1 != 0 {
		for i := 1; i < c.cfg.Ways; i++ {
			if used[i] < used[victim] {
				victim = i
			}
		}
	}
	res := Result{}
	vbit := uint64(1) << uint(victim)
	if vm&vbit != 0 && c.dirty[setIdx]&vbit != 0 {
		res.VictimDirty = true
		res.Victim = c.reconstruct(setIdx, c.tags[base+victim])
		c.bankStats[p.Bank].Writebacks++
	}
	c.tags[base+victim] = p.tag
	c.vers[setIdx]++
	pw := setIdx*c.ptagStride + victim/8
	sh := uint(victim%8) * 8
	c.ptags[pw] = c.ptags[pw]&^(0xff<<sh) | (p.tag&0xff)<<sh
	c.valid[setIdx] |= vbit
	if write {
		c.dirty[setIdx] |= vbit
	} else {
		c.dirty[setIdx] &^= vbit
	}
	used[victim] = stamp
	c.bankStats[p.Bank].Misses++
	return res
}

// InstallVersion returns the install counter of the probed line's set. A
// miss probe remains exact — same absent line, same bank/set/tag — for as
// long as InstallVersion is unchanged, because only an install could make
// the line appear (evictions of other ways cannot).
func (c *Banked) InstallVersion(p Probe) uint32 { return c.vers[p.set] }

// Access performs a write-allocate lookup of the line containing addr.
// On a miss the line is installed (evicting the LRU way) and the caller is
// told whether a dirty victim must be written back to memory. write marks
// the installed/updated line dirty.
func (c *Banked) Access(addr phys.Addr, write bool) Result {
	return c.Commit(c.ProbeLine(addr), write)
}

// PrefillSequential installs n consecutive lines starting at base, marking
// them dirty if write is set. It is exactly equivalent to calling
// Access(base+i*LineSize, write) for i in [0, n) — provided none of those
// lines is already cached, which makes every lookup a guaranteed miss and
// the hit scan provably dead, so it is skipped. Intended for warm-up
// pre-fill of a freshly built cache, the one caller that satisfies the
// precondition by construction.
func (c *Banked) PrefillSequential(base phys.Addr, n int64, write bool) {
	for i := int64(0); i < n; i++ {
		line := phys.LineOf(base + phys.Addr(i)*phys.LineSize)
		bank, setIdx, tag := c.locate(line)
		c.Commit(Probe{Bank: bank, set: int32(setIdx), way: -1, tag: tag}, write)
	}
}

// Contains reports whether the line holding addr is currently cached,
// without perturbing LRU state. Intended for tests and analyzers.
func (c *Banked) Contains(addr phys.Addr) bool {
	return c.ProbeLine(addr).Hit
}

// reconstruct rebuilds a victim's line address from its set index and tag.
// It inverts locate: the bank and in-bank set index recover the low fields,
// the tag supplies the high bits.
func (c *Banked) reconstruct(setIdx int, tag uint64) phys.Addr {
	bank := setIdx / c.setsPerBank
	set := uint64(setIdx % c.setsPerBank)
	if c.wide {
		// Invert the excised-field indexing: split the set|tag index back
		// into the line-within-granule and above-bank fields, then re-insert
		// the bank field between them.
		idx := tag<<c.setBits | set
		within := idx & (1<<c.gBits - 1)
		above := idx >> c.gBits
		return phys.Addr(above<<c.wideShift | uint64(bank)<<c.bankShift | within<<c.lineBits)
	}
	addr := tag<<(c.setShift+c.setBits) | set<<c.setShift
	// Re-insert the bank-selection bits. For field mappings whose bank bits
	// sit directly above the line offset (the T2), the bank index is the
	// field value itself; for hashed mappings the bank field is not
	// address-recoverable, so we search the bank's aliases.
	if c.bankInsert {
		return phys.Addr(addr | uint64(bank)<<c.lineBits)
	}
	bankBits := c.setShift - c.lineBits
	for b := uint64(0); b < 1<<bankBits; b++ {
		cand := phys.Addr(addr | b<<c.lineBits)
		if c.mapped.Bank(cand) == bank {
			return cand
		}
	}
	// Unreachable for well-formed mappings; return the bankless address so
	// traffic accounting still sees a plausible line.
	return phys.Addr(addr)
}

// Stats returns aggregate counters: the per-bank counters summed in bank
// order, so the aggregate is deterministic however the banks were driven.
func (c *Banked) Stats() Stats {
	var s Stats
	for i := range c.bankStats {
		s.Hits += c.bankStats[i].Hits
		s.Misses += c.bankStats[i].Misses
		s.Writebacks += c.bankStats[i].Writebacks
	}
	return s
}

// Image is a snapshot of the tag store (not the counters), used to restore
// a warmed-up cache without replaying the warm-up access sequence.
type Image struct {
	tags, used   []uint64
	valid, dirty []uint64
	ptags        []uint64
	clocks       []uint64
}

// Snapshot captures the current tag-store contents.
func (c *Banked) Snapshot() *Image {
	return &Image{
		tags:   slices.Clone(c.tags),
		used:   slices.Clone(c.used),
		valid:  slices.Clone(c.valid),
		dirty:  slices.Clone(c.dirty),
		ptags:  slices.Clone(c.ptags),
		clocks: slices.Clone(c.clocks),
	}
}

// Restore overwrites the tag store with a snapshot taken from a cache of
// identical geometry and clears the counters, exactly reproducing the
// state Snapshot saw after a ResetStats. It panics on geometry mismatch.
func (c *Banked) Restore(img *Image) {
	if len(img.tags) != len(c.tags) || len(img.valid) != len(c.valid) {
		panic(fmt.Sprintf("cache: restoring %d-line image into %d-line cache", len(img.tags), len(c.tags)))
	}
	copy(c.tags, img.tags)
	copy(c.used, img.used)
	copy(c.valid, img.valid)
	copy(c.dirty, img.dirty)
	copy(c.ptags, img.ptags)
	copy(c.clocks, img.clocks)
	c.ResetStats()
}

// BankStats returns per-bank counters.
func (c *Banked) BankStats() []Stats {
	out := make([]Stats, len(c.bankStats))
	copy(out, c.bankStats)
	return out
}

// ResetStats clears the counters but keeps cache contents — used after
// warm-up phases so reported statistics cover only the timed region.
func (c *Banked) ResetStats() {
	for i := range c.bankStats {
		c.bankStats[i] = Stats{}
	}
}

// Reset invalidates the cache and clears counters.
func (c *Banked) Reset() {
	clear(c.tags)
	clear(c.used)
	clear(c.valid)
	clear(c.dirty)
	clear(c.ptags)
	clear(c.vers)
	clear(c.clocks)
	for i := range c.bankStats {
		c.bankStats[i] = Stats{}
	}
}
