package cache

import (
	"fmt"
	"math/bits"
	"testing"
	"unsafe"

	"repro/internal/phys"
)

// stampRef is the stamp-scan LRU the recency stack replaced, kept as a
// reference model: every commit stamps its way with the bank's next clock
// value, and a miss into a full set scans the set's stamps for the
// smallest. It shares only geometry (locate) with the cache under test,
// through a Banked it never mutates.
type stampRef struct {
	geo          *Banked
	ways         int
	tags, used   []uint64 // [set*ways + way]
	valid, dirty []uint64 // per-set way bitmasks
	clocks       []uint64 // per bank
	stats        Stats
}

func newStampRef(cfg Config, m phys.Mapping) *stampRef {
	geo := New(cfg, m)
	sets := len(geo.sets)
	return &stampRef{
		geo:    geo,
		ways:   cfg.Ways,
		tags:   make([]uint64, sets*cfg.Ways),
		used:   make([]uint64, sets*cfg.Ways),
		valid:  make([]uint64, sets),
		dirty:  make([]uint64, sets),
		clocks: make([]uint64, m.Banks()),
	}
}

// lookup returns the bank, set, tag and hit way (-1 on a miss) of addr.
func (r *stampRef) lookup(addr phys.Addr) (bank, set int, tag uint64, way int) {
	bank, set, tag = r.geo.locate(phys.LineOf(addr))
	for i := 0; i < r.ways; i++ {
		if r.valid[set]&(1<<uint(i)) != 0 && r.tags[set*r.ways+i] == tag {
			return bank, set, tag, i
		}
	}
	return bank, set, tag, -1
}

func (r *stampRef) contains(addr phys.Addr) bool {
	_, _, _, way := r.lookup(addr)
	return way >= 0
}

func (r *stampRef) access(addr phys.Addr, write bool) Result {
	bank, set, tag, way := r.lookup(addr)
	base := set * r.ways
	r.clocks[bank]++
	stamp := r.clocks[bank]
	if way >= 0 {
		r.used[base+way] = stamp
		if write {
			r.dirty[set] |= 1 << uint(way)
		}
		r.stats.Hits++
		return Result{Hit: true}
	}
	// The first invalid way at index >= 1 if any, else way 0 if invalid,
	// else the way with the smallest stamp.
	vm := r.valid[set]
	victim := 0
	if inv := ^vm &^ 1 & (1<<uint(r.ways) - 1); inv != 0 {
		victim = bits.TrailingZeros64(inv)
	} else if vm&1 != 0 {
		for i := 1; i < r.ways; i++ {
			if r.used[base+i] < r.used[base+victim] {
				victim = i
			}
		}
	}
	res := Result{}
	vbit := uint64(1) << uint(victim)
	if r.valid[set]&vbit != 0 && r.dirty[set]&vbit != 0 {
		res.VictimDirty = true
		r.stats.Writebacks++
	}
	r.tags[base+victim] = tag
	r.valid[set] |= vbit
	if write {
		r.dirty[set] |= vbit
	} else {
		r.dirty[set] &^= vbit
	}
	r.used[base+victim] = stamp
	r.stats.Misses++
	return res
}

// lruWays are the associativities the differential tests cover: 1 and 16
// are the stack's edges, 3 and 12 leave a partial ptag word.
var lruWays = []int{1, 2, 3, 4, 8, 12, 16}

// lruConfig is a small geometry with ways ways and setsPerBank sets in
// each of m's banks, so an access stream fills sets and forces victim
// choices quickly.
func lruConfig(ways int, m phys.Mapping, setsPerBank int) Config {
	return Config{SizeBytes: int64(ways*m.Banks()*setsPerBank) * 64, Ways: ways}
}

// compareLRU drives the cache and the stamp-scan reference with the same
// stream: ops[i] selects a line (low bits) and a write (top bit), probe[i]
// a line whose residency both must agree on. It returns the first
// mismatch.
func compareLRU(cfg Config, m phys.Mapping, ops, probe []uint16) error {
	c := New(cfg, m)
	ref := newStampRef(cfg, m)
	// Three times the cache's lines: about a third of accesses hit.
	span := uint64(3 * cfg.SizeBytes / phys.LineSize)
	addr := func(x uint16) phys.Addr { return phys.Addr(uint64(x&0x7fff)%span) * 64 }

	for i := range ops {
		a, w := addr(ops[i]), ops[i]&0x8000 != 0
		if got, want := c.Access(a, w), ref.access(a, w); got != want {
			return fmt.Errorf("step %d access %#x write %v: got %+v, reference %+v", i, a, w, got, want)
		}
		if i < len(probe) {
			pa := addr(probe[i])
			if got, want := c.Contains(pa), ref.contains(pa); got != want {
				return fmt.Errorf("step %d: Contains(%#x) = %v, reference %v", i, pa, got, want)
			}
		}
		if got, want := c.Stats(), ref.stats; got != want {
			return fmt.Errorf("step %d: stats %+v, reference %+v", i, got, want)
		}
	}
	return nil
}

// TestRecencyLRUMatchesStampScan is the differential test of the recency
// stack against the stamp scan it replaced: seeded random streams of hits,
// misses and dirty writes must give equal Results, residency and counters
// for every covered associativity, on the line-granule T2 mapping, a
// coarse interleave and one bank.
func TestRecencyLRUMatchesStampScan(t *testing.T) {
	mappings := []phys.Mapping{phys.T2(), phys.NewInterleave("t2-wide1k", 1024, 4, 2), phys.Single()}
	for _, ways := range lruWays {
		for _, m := range mappings {
			for seed := uint64(1); seed <= 4; seed++ {
				rng := seed
				next := func() uint16 {
					rng = rng*6364136223846793005 + 1442695040888963407
					return uint16(rng >> 48)
				}
				ops, probe := make([]uint16, 6000), make([]uint16, 6000)
				for i := range ops {
					ops[i], probe[i] = next(), next()
				}
				if err := compareLRU(lruConfig(ways, m, 4), m, ops, probe); err != nil {
					t.Fatalf("%d ways, %s, seed %d: %v", ways, m.Name(), seed, err)
				}
			}
		}
	}
}

// FuzzRecencyLRU runs the same comparison over fuzzer-chosen associativity
// (an index into lruWays) and access streams: each four bytes of data are
// one access and one residency probe. The cache has two sets in one bank,
// so even a short input fills them and every later miss picks an LRU
// victim; short inputs keep the fuzzer's minimization fast. The seed
// corpus covers every associativity.
func FuzzRecencyLRU(f *testing.F) {
	rng := uint64(1)
	for i := range lruWays {
		seed := make([]byte, 512)
		for j := range seed {
			rng = rng*6364136223846793005 + 1442695040888963407
			seed[j] = byte(rng >> 56)
		}
		f.Add(uint8(i), seed)
	}
	f.Fuzz(func(t *testing.T, ways uint8, data []byte) {
		w := lruWays[int(ways)%len(lruWays)]
		var ops, probe []uint16
		for i := 0; i+3 < len(data); i += 4 {
			ops = append(ops, uint16(data[i])|uint16(data[i+1])<<8)
			probe = append(probe, uint16(data[i+2])|uint16(data[i+3])<<8)
		}
		m := phys.Single()
		if err := compareLRU(lruConfig(w, m, 2), m, ops, probe); err != nil {
			t.Fatalf("%d ways: %v", w, err)
		}
	})
}

// TestSetMetaIsHalfACacheLine pins the record layout the tag store is
// built around: each set's 32-byte metadata comes first in its 96-byte
// record, followed by its full tags, so the metadata of every set lies
// within one 64-byte host cache line and a probe and its commit touch one
// record.
func TestSetMetaIsHalfACacheLine(t *testing.T) {
	if n := unsafe.Sizeof(setMeta{}); n != 32 {
		t.Errorf("setMeta is %d bytes, want 32", n)
	}
	var r setRecord
	if n := unsafe.Sizeof(r); n != 96 {
		t.Errorf("setRecord is %d bytes, want 96", n)
	}
	if off := unsafe.Offsetof(r.tags); off != 32 {
		t.Errorf("tags at offset %d of the set record, want 32 (after the metadata)", off)
	}
}
