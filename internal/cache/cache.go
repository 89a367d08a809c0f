// Package cache models the T2's shared, banked, write-back L2 cache with
// real tag arrays. Real tags (rather than an analytic hit-rate model) are
// required because two of the paper's observations are capacity/conflict
// effects: the Jacobi solver needs "static,1" scheduling because the 4 MB
// L2 cannot hold one row band per thread when chunks are large
// (Sect. 2.3), and the lattice-Boltzmann kernel collapses when the padded
// domain edge is a multiple of 64 because power-of-two strides thrash the
// sets (Sect. 2.4).
//
// A miss reports only whether its victim was dirty, not the victim's
// address: the victim shares its set, and so its bank and memory
// controller, with the line that evicts it, which is all a writeback
// needs to know.
package cache

import (
	"fmt"
	"math"
	"math/bits"

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
	VictimDirty bool // the evicted victim must be written back
}

// Banked is a banked, set-associative, write-allocate, write-back cache
// with LRU replacement. Bank selection is delegated to the machine's
// address mapping so that the cache and the controllers stay consistent;
// the mapping is devirtualized at construction time (phys.Resolve), so the
// common bit-field mappings cost no interface call per access.
//
// The tag store is one flat slice of 96-byte set records, each holding
// everything a probe or commit of that set reads: its 32-byte metadata
// and its Ways full tags. A probe and its commit touch one record, and the
// metadata never straddles a host cache line.
type Banked struct {
	cfg         Config
	mapped      phys.Resolved
	setsPerBank int
	setShift    uint
	tagShift    uint
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
	sets      []setRecord // [set]
	ptagWords int         // ptag words in use: one per 8 ways
	wayMask   uint16      // one bit per way
	lruShift  uint        // bit position of the LRU nibble: 4·(Ways-1)
	stats     Stats
}

// setRecord is one set of the tag store: its 32-byte metadata, then the
// full tags of its ways. A record is 96 bytes, so it starts at offset 0 or
// 32 of a host cache line and its metadata never straddles one. A tag is
// stored in 32 bits: a 4 MB 16-way cache on 64-byte lines keeps
// addr >> 18, so 32 bits cover a 2^50-byte address space, and Commit
// refuses a tag that does not fit rather than alias two lines.
type setRecord struct {
	setMeta
	tags [16]uint32
}

// setMeta is one set's metadata, 32 bytes.
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
		sets:        make([]setRecord, setsTotal),
		ptagWords:   (cfg.Ways + 7) / 8,
		wayMask:     uint16(1<<cfg.Ways - 1),
		lruShift:    4 * uint(cfg.Ways-1),
	}
	// Every set's recency stack starts in its initial order, nibble i
	// holding way i. Nibbles at and above Ways are never read or moved.
	for i := range c.sets {
		c.sets[i].lru = lruInit
	}
	c.setBits = uint(bits.Len(uint(perBank - 1)))
	if fs, ok := c.mapped.BankField(); ok && fs > phys.LineShift {
		// Coarse interleave: the bank field sits above the line offset.
		// The default scheme would fold all lines of a granule onto one
		// (set, tag), so switch to the excised-field indexing.
		c.wide = true
		c.gBits = fs - phys.LineShift
		c.wideShift = fs + uint(bankBits)
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
// decide, then Commit. A hit probe is valid until the next mutating access
// to the cache. A miss probe names no way, since Commit picks the victim
// when it runs, so it stays valid for as long as its line is not cached.
// It is 16 bytes: the run loop copies one per access and keeps one per
// NACKed strand.
type Probe struct {
	tag  uint64
	set  int32
	way  int16 // index of the hit way; -1 on a miss
	bank int16
}

// Hit reports whether the probed line is cached.
func (p Probe) Hit() bool { return p.way >= 0 }

// Bank returns the bank that serves the probed line.
func (p Probe) Bank() int { return int(p.bank) }

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
	r := &c.sets[setIdx]
	needle := (tag & 0xff) * swarLo
	for w := 0; w < c.ptagWords; w++ {
		x := r.ptag[w] ^ needle
		hits := (x - swarLo) &^ x & swarHi
		for hits != 0 {
			i := w*8 + bits.TrailingZeros64(hits)/8
			hits &= hits - 1
			if i >= c.cfg.Ways {
				break
			}
			if uint64(r.tags[i]) == tag && r.valid&(1<<uint(i)) != 0 {
				return Probe{tag: tag, set: int32(setIdx), way: int16(i), bank: int16(bank)}
			}
		}
	}
	return Probe{tag: tag, set: int32(setIdx), way: -1, bank: int16(bank)}
}

// Commit applies the access described by a Probe: on a hit it touches LRU
// and dirtiness; on a miss it installs the line over the LRU victim and
// reports a dirty victim for writeback. A hit probe must come from the
// immediately preceding ProbeLine with no intervening mutating access; a
// miss probe only needs its line to be still absent. Commit panics on a
// miss whose tag does not fit the store's 32 bits.
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
	if p.tag > math.MaxUint32 {
		panic(fmt.Sprintf("cache: tag %#x of set %d does not fit the 32-bit tag store", p.tag, setIdx))
	}
	res := Result{}
	vbit := uint16(1) << uint(victim)
	if vm&vbit != 0 && m.dirty&vbit != 0 {
		res.VictimDirty = true
		c.stats.Writebacks++
	}
	m.tags[victim] = uint32(p.tag)
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

// Warm fills the cache with dirty lines, leaving every tag, recency stack
// and valid and dirty mask exactly as installing SizeBytes of consecutive
// lines from base, one by one with Access(line, true), would leave an empty
// cache; base must be aligned to SizeBytes/Ways. locate is a bijection
// from a line to its (bank, set, tag), and the tag is the line's top bits,
// so such a range gives every set the tags t0 ... t0+Ways-1, in that order,
// where t0 is base's tag: every set record ends equal. Warm builds set 0
// through Commit's miss path, copies it to every other set and clears the
// counters.
func (c *Banked) Warm(base phys.Addr) {
	_, _, t0 := c.locate(phys.LineOf(base))
	c.sets[0] = setRecord{setMeta: setMeta{lru: lruInit}}
	for w := range c.cfg.Ways {
		c.Commit(Probe{tag: t0 + uint64(w), way: -1}, true)
	}
	for n := 1; n < len(c.sets); n *= 2 {
		copy(c.sets[n:], c.sets[:n])
	}
	c.ResetStats()
}

// Contains reports whether the line holding addr is currently cached,
// without perturbing LRU state. Intended for tests and analyzers.
func (c *Banked) Contains(addr phys.Addr) bool {
	return c.ProbeLine(addr).Hit()
}

// Stats returns the cache's activity counters.
func (c *Banked) Stats() Stats { return c.stats }

// ResetStats clears the counters but keeps cache contents — used after
// warm-up phases so reported statistics cover only the timed region.
func (c *Banked) ResetStats() { c.stats = Stats{} }
