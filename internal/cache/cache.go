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

// Config describes a banked set-associative cache. The line size is
// phys.LineSize and the bank count is the mapping's, so the cache and the
// controllers agree by construction.
type Config struct {
	SizeBytes int64 // total capacity
	Ways      int   // associativity
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
// The tag store is two flat slices: the full tags, Ways contiguous words
// per set, and one 32-byte setMeta record per set holding everything else
// a probe or commit reads. Two records share a host cache line, so a miss
// into a full set touches that line and one tag word.
type Banked struct {
	cfg         Config
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
	setBits   uint
	bankShift uint
	tags      []uint64  // [set*Ways + way]
	sets      []setMeta // [set]
	ptagWords int       // ptag words in use: one per 8 ways
	wayMask   uint16    // one bit per way
	lruShift  uint      // bit position of the LRU nibble: 4·(Ways-1)
	stats     Stats
}

// setMeta is one set's metadata, 32 bytes so that two sets share a host
// cache line.
type setMeta struct {
	// ptag packs one byte of each way's tag, so a probe can reject a set
	// in two SWAR comparisons instead of scanning Ways full tags — the
	// common case for streaming kernels, whose demand accesses virtually
	// always miss. A byte match is only a candidate: the full tag and
	// valid bit still decide.
	ptag [2]uint64
	// lru is the recency stack, one way number per nibble: nibble 0 holds
	// the most recently used way, nibble Ways-1 the least recently used.
	lru          uint64
	valid, dirty uint16 // per-way bitmasks
}

// Nibble-lane SWAR constants for the recency stack, and its initial order:
// nibble i holds way i.
const (
	nibbleLo = 0x1111111111111111
	nibbleHi = 0x8888888888888888
	lruInit  = 0xfedcba9876543210
)

// touch moves way w to the top of the recency stack. Every way appears
// exactly once in the stack, so its position is the lowest zero nibble of
// lru ^ w·nibbleLo; the nibbles below it shift up by one, those above stay.
func (m *setMeta) touch(w uint64) {
	x := m.lru ^ w*nibbleLo
	z := (x - nibbleLo) &^ x & nibbleHi
	below := uint64(1)<<(uint(bits.TrailingZeros64(z))&^3) - 1
	m.lru = m.lru&^(below<<4|0xf) | (m.lru&below)<<4 | w
}

// Check reports whether cfg is a buildable geometry on mapping's banks,
// without allocating the tag store: New panics with exactly this error.
func Check(cfg Config, mapping phys.Mapping) error {
	_, err := setsPerBank(cfg, mapping.Banks())
	return err
}

// setsPerBank applies the geometry rules and returns the sets each of the
// banks holds.
func setsPerBank(cfg Config, banks int) (int64, error) {
	lines := cfg.SizeBytes / phys.LineSize
	if lines <= 0 || cfg.Ways <= 0 || int64(cfg.Ways) > lines {
		return 0, fmt.Errorf("cache: impossible geometry %+v", cfg)
	}
	if cfg.Ways > 16 {
		return 0, fmt.Errorf("cache: associativity %d exceeds the 16-way limit of the 4-bit LRU stack", cfg.Ways)
	}
	setsTotal := lines / int64(cfg.Ways)
	if setsTotal%int64(banks) != 0 {
		return 0, fmt.Errorf("cache: %d sets do not divide across %d banks", setsTotal, banks)
	}
	perBank := setsTotal / int64(banks)
	if perBank&(perBank-1) != 0 {
		return 0, fmt.Errorf("cache: %d sets per bank not a power of two", perBank)
	}
	return perBank, nil
}

// New builds a cache from cfg using mapping for bank selection; the bank
// count is mapping.Banks(). It panics on geometrically impossible
// configurations (see Check), since every experiment depends on the
// geometry being exactly as configured.
func New(cfg Config, mapping phys.Mapping) *Banked {
	banks := mapping.Banks()
	perBank, err := setsPerBank(cfg, banks)
	if err != nil {
		panic(err.Error())
	}
	setsTotal := perBank * int64(banks)
	// The bank is selected by the mapping (bits 8:6 on the T2); the set
	// within a bank is indexed by the address bits immediately above the
	// bank-selection field, i.e. starting at bit 9 on the T2.
	bankBits := bits.Len(uint(banks - 1))
	setShift := phys.LineShift + uint(bankBits)
	c := &Banked{
		cfg:         cfg,
		mapped:      phys.Resolve(mapping),
		setsPerBank: int(perBank),
		setShift:    setShift,
		tagShift:    setShift + uint(bits.Len(uint(perBank-1))),
		tags:        make([]uint64, setsTotal*int64(cfg.Ways)),
		sets:        make([]setMeta, setsTotal),
		ptagWords:   (cfg.Ways + 7) / 8,
		wayMask:     uint16(1<<cfg.Ways - 1),
		lruShift:    4 * uint(cfg.Ways-1),
	}
	c.initLRU()
	c.setBits = uint(bits.Len(uint(perBank - 1)))
	if fs, ok := c.mapped.BankField(); ok {
		c.bankShift = fs
		switch {
		case fs == phys.LineShift:
			c.bankInsert = true
		case fs > phys.LineShift:
			// Coarse interleave: the bank field sits above the line offset.
			// The default scheme would fold all lines of a granule onto one
			// (set, tag), so switch to the excised-field indexing.
			c.wide = true
			c.gBits = fs - phys.LineShift
			c.wideShift = fs + uint(bankBits)
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
	idx := uint64(line)>>c.wideShift<<c.gBits | uint64(line)>>phys.LineShift&(1<<c.gBits-1)
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
// reject most missing lines in ptagWords word comparisons; only byte-lane
// matches fall through to full tag-and-valid verification.
func (c *Banked) ProbeLine(addr phys.Addr) Probe {
	line := phys.LineOf(addr)
	bank, setIdx, tag := c.locate(line)
	m := &c.sets[setIdx]
	base := setIdx * c.cfg.Ways
	needle := (tag & 0xff) * swarLo
	for w := 0; w < c.ptagWords; w++ {
		x := m.ptag[w] ^ needle
		hits := (x - swarLo) &^ x & swarHi
		for hits != 0 {
			i := w*8 + bits.TrailingZeros64(hits)/8
			hits &= hits - 1
			if i >= c.cfg.Ways {
				break
			}
			if c.tags[base+i] == tag && m.valid&(1<<uint(i)) != 0 {
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
	m := &c.sets[setIdx]
	if p.way >= 0 {
		m.touch(uint64(p.way))
		if write {
			m.dirty |= 1 << uint(p.way)
		}
		c.stats.Hits++
		return Result{Hit: true}
	}

	// Miss: the victim is the first invalid way at index >= 1 if any, else
	// way 0 if invalid, else the LRU way. A full set has touched every way
	// since it was last cleared, so the bottom of its recency stack is the
	// least recently used way.
	vm := m.valid
	victim := 0
	if inv := ^vm &^ 1 & c.wayMask; inv != 0 {
		victim = bits.TrailingZeros16(inv)
	} else if vm&1 != 0 {
		victim = int(m.lru >> c.lruShift & 0xf)
	}
	res := Result{}
	vbit := uint16(1) << uint(victim)
	ti := setIdx*c.cfg.Ways + victim
	if vm&vbit != 0 && m.dirty&vbit != 0 {
		res.VictimDirty = true
		res.Victim = c.reconstruct(setIdx, c.tags[ti])
		c.stats.Writebacks++
	}
	c.tags[ti] = p.tag
	sh := uint(victim%8) * 8
	m.ptag[victim/8] = m.ptag[victim/8]&^(0xff<<sh) | (p.tag&0xff)<<sh
	m.valid |= vbit
	if write {
		m.dirty |= vbit
	} else {
		m.dirty &^= vbit
	}
	m.touch(uint64(victim))
	c.stats.Misses++
	return res
}

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
		return phys.Addr(above<<c.wideShift | uint64(bank)<<c.bankShift | within<<phys.LineShift)
	}
	addr := tag<<(c.setShift+c.setBits) | set<<c.setShift
	// Re-insert the bank-selection bits. For field mappings whose bank bits
	// sit directly above the line offset (the T2), the bank index is the
	// field value itself; for hashed mappings the bank field is not
	// address-recoverable, so we search the bank's aliases.
	if c.bankInsert {
		return phys.Addr(addr | uint64(bank)<<phys.LineShift)
	}
	bankBits := c.setShift - phys.LineShift
	for b := uint64(0); b < 1<<bankBits; b++ {
		cand := phys.Addr(addr | b<<phys.LineShift)
		if c.mapped.Bank(cand) == bank {
			return cand
		}
	}
	// Unreachable for well-formed mappings; return the bankless address so
	// traffic accounting still sees a plausible line.
	return phys.Addr(addr)
}

// Stats returns the cache's activity counters.
func (c *Banked) Stats() Stats { return c.stats }

// Image is a snapshot of the tag store (not the counters), used to restore
// a warmed-up cache without replaying the warm-up access sequence.
type Image struct {
	tags []uint64
	sets []setMeta
}

// Snapshot captures the current tag-store contents.
func (c *Banked) Snapshot() *Image {
	return &Image{tags: slices.Clone(c.tags), sets: slices.Clone(c.sets)}
}

// Restore overwrites the tag store with a snapshot taken from a cache of
// identical geometry and clears the counters, exactly reproducing the
// state Snapshot saw after a ResetStats. It panics on geometry mismatch.
func (c *Banked) Restore(img *Image) {
	if len(img.tags) != len(c.tags) || len(img.sets) != len(c.sets) {
		panic(fmt.Sprintf("cache: restoring %d-line image into %d-line cache", len(img.tags), len(c.tags)))
	}
	copy(c.tags, img.tags)
	copy(c.sets, img.sets)
	c.ResetStats()
}

// ResetStats clears the counters but keeps cache contents — used after
// warm-up phases so reported statistics cover only the timed region.
func (c *Banked) ResetStats() { c.stats = Stats{} }

// Reset invalidates the cache and clears counters.
func (c *Banked) Reset() {
	clear(c.tags)
	clear(c.sets)
	c.initLRU()
	c.ResetStats()
}

// initLRU gives every set's recency stack its initial order, nibble i
// holding way i. Nibbles at and above Ways are never read or moved.
func (c *Banked) initLRU() {
	for i := range c.sets {
		c.sets[i].lru = lruInit
	}
}
