package phys

import (
	"testing"
	"testing/quick"
)

// legacyT2 is the historical hand-written T2 mapping, kept here as the
// bit-for-bit reference the parameterized Interleave must reproduce.
type legacyT2 struct{}

func (legacyT2) Controller(a Addr) int { return int(a>>7) & 3 }
func (legacyT2) Bank(a Addr) int       { return int(a>>6) & 7 }
func (legacyT2) Controllers() int      { return 4 }
func (legacyT2) Banks() int            { return 8 }
func (legacyT2) Period() int64         { return 512 }
func (legacyT2) Name() string          { return "t2" }

// legacySingle is the historical hand-written degenerate mapping.
type legacySingle struct{}

func (legacySingle) Controller(Addr) int { return 0 }
func (legacySingle) Bank(Addr) int       { return 0 }
func (legacySingle) Controllers() int    { return 1 }
func (legacySingle) Banks() int          { return 1 }
func (legacySingle) Period() int64       { return LineSize }
func (legacySingle) Name() string        { return "single" }

// TestInterleaveReproducesLegacyMappings is the exhaustive equivalence
// pin for the machine-profile refactor: the parameterized Interleave
// instances T2() and Single() must agree with the historical hand-written
// mappings on every method, and ControllerOf with their Controller, line
// by line, over a low window near zero and a high window past bit 40 —
// several interleave periods each, so every bank/controller phase is
// covered on both sides of the address space.
func TestInterleaveReproducesLegacyMappings(t *testing.T) {
	cases := []struct {
		now Mapping
		old interface {
			Mapping
			Controller(Addr) int
		}
	}{
		{T2(), legacyT2{}},
		{Single(), legacySingle{}},
	}
	for _, c := range cases {
		if c.now.Controllers() != c.old.Controllers() || c.now.Banks() != c.old.Banks() {
			t.Fatalf("%s: geometry %d/%d, legacy %d/%d", c.now.Name(),
				c.now.Controllers(), c.now.Banks(), c.old.Controllers(), c.old.Banks())
		}
		if c.now.Period() != c.old.Period() {
			t.Fatalf("%s: period %d, legacy %d", c.now.Name(), c.now.Period(), c.old.Period())
		}
		if c.now.Name() != c.old.Name() {
			t.Fatalf("name %q, legacy %q", c.now.Name(), c.old.Name())
		}
		for _, base := range []Addr{0, 1 << 40} {
			for off := Addr(0); off < Addr(8*c.now.Period()); off += LineSize {
				a := base + off
				if got, want := ControllerOf(c.now, a), c.old.Controller(a); got != want {
					t.Fatalf("%s: ControllerOf(%#x) = %d, legacy %d", c.now.Name(), uint64(a), got, want)
				}
				if got, want := c.now.Bank(a), c.old.Bank(a); got != want {
					t.Fatalf("%s: Bank(%#x) = %d, legacy %d", c.now.Name(), uint64(a), got, want)
				}
			}
		}
	}
}

// TestInterleaveFieldsSurviveResolve: every profile-relevant interleave
// lands on the devirtualized fast path (TestResolveFastPathMatchesInterface
// checks that the path agrees with the interface).
func TestInterleaveFieldsSurviveResolve(t *testing.T) {
	for _, iv := range []Interleave{
		T2(),
		Single(),
		NewInterleave("t2-1mc", LineSize, 1, 2),
		NewInterleave("t2-2mc", LineSize, 2, 2),
		NewInterleave("mc8", LineSize, 8, 2),
		NewInterleave("t2-wide1k", 1024, 4, 2),
		NewInterleave("t2-wide4k", 4096, 4, 2),
	} {
		r := Resolve(iv)
		if !r.Fast() {
			t.Errorf("%s: interleave did not resolve to the bit-field fast path", iv.Name())
		}
	}
}

func TestT2MappingBits(t *testing.T) {
	m := T2()
	cases := []struct {
		addr Addr
		ctl  int
		bank int
	}{
		{0x000, 0, 0},
		{0x040, 0, 1}, // bit 6 flips the bank within the controller pair
		{0x080, 1, 2}, // bit 7 advances the controller
		{0x0c0, 1, 3},
		{0x100, 2, 4}, // bit 8
		{0x180, 3, 6},
		{0x1c0, 3, 7},
		{0x200, 0, 0}, // 512-byte period
		{0x1234_0000, 0, 0},
		{0x1234_0080, 1, 2},
	}
	for _, c := range cases {
		if got := ControllerOf(m, c.addr); got != c.ctl {
			t.Errorf("ControllerOf(%#x) = %d, want %d", c.addr, got, c.ctl)
		}
		if got := m.Bank(c.addr); got != c.bank {
			t.Errorf("Bank(%#x) = %d, want %d", c.addr, got, c.bank)
		}
	}
}

// TestControllerSelectionByMapping pins ControllerOf, the one rule from a
// line's bank to its controller, on the T2 interleave, on the coarse
// granules and on the hashed fold, whose controller is the fold's upper
// two bits.
func TestControllerSelectionByMapping(t *testing.T) {
	cases := []struct {
		m     Mapping
		addrs []Addr // the first line of controllers 0, 1, 2, 3 in turn
	}{
		{T2(), []Addr{0x000, 0x080, 0x100, 0x180}},
		{NewInterleave("t2-wide1k", 1024, 4, 2), []Addr{0x0000, 0x0800, 0x1000, 0x1800}},
		{NewInterleave("t2-wide4k", 4096, 4, 2), []Addr{0x0000, 0x2000, 0x4000, 0x6000}},
	}
	for _, c := range cases {
		for want, a := range c.addrs {
			// The whole bank pair of the controller answers the same.
			for off := Addr(0); off < Addr(c.m.Period()/4); off += LineSize {
				if got := ControllerOf(c.m, a+off); got != want {
					t.Fatalf("%s: ControllerOf(%#x) = %d, want %d", c.m.Name(), uint64(a+off), got, want)
				}
			}
		}
	}
	x := XORMapping{}
	for a := Addr(0); a < 1<<20; a += LineSize {
		if got, want := ControllerOf(x, a), int(xorFold(a)>>1); got != want {
			t.Fatalf("xor: ControllerOf(%#x) = %d, want the fold's upper bits %d", uint64(a), got, want)
		}
	}
}

// TestInterleaveGeometry spot-checks the non-T2 instances the profile
// registry builds on.
func TestInterleaveGeometry(t *testing.T) {
	cases := []struct {
		iv          Interleave
		ctls, banks int
		period      int64
	}{
		{NewInterleave("t2-1mc", LineSize, 1, 2), 1, 2, 128},
		{NewInterleave("t2-2mc", LineSize, 2, 2), 2, 4, 256},
		{NewInterleave("mc8", LineSize, 8, 2), 8, 16, 1024},
		{NewInterleave("t2-wide1k", 1024, 4, 2), 4, 8, 8192},
		{NewInterleave("t2-wide4k", 4096, 4, 2), 4, 8, 32768},
	}
	for _, c := range cases {
		if c.iv.Controllers() != c.ctls || c.iv.Banks() != c.banks || c.iv.Period() != c.period {
			t.Errorf("%s: %d controllers / %d banks / period %d, want %d/%d/%d", c.iv.Name(),
				c.iv.Controllers(), c.iv.Banks(), c.iv.Period(), c.ctls, c.banks, c.period)
		}
		// Period property: the controller repeats exactly at the period and
		// changes somewhere inside it (unless there is only one controller).
		for k := int64(0); k < c.period; k += LineSize {
			a := Addr(k)
			if ControllerOf(c.iv, a) != ControllerOf(c.iv, a+Addr(c.period)) {
				t.Fatalf("%s: controller not periodic at %#x", c.iv.Name(), k)
			}
		}
	}
	// A coarse interleave keeps whole granules on one controller.
	wide := NewInterleave("t2-wide1k", 1024, 4, 2)
	for k := int64(0); k < 1024; k += LineSize {
		if ControllerOf(wide, Addr(k)) != ControllerOf(wide, 0) || wide.Bank(Addr(k)) != wide.Bank(0) {
			t.Fatalf("wide interleave splits a granule at offset %d", k)
		}
	}
	if wide.Bank(1024) == wide.Bank(0) {
		t.Error("wide interleave does not advance the bank at the granule boundary")
	}
}

// TestNewInterleaveRejectsBadGeometry pins the constructor validation.
func TestNewInterleaveRejectsBadGeometry(t *testing.T) {
	cases := []struct {
		name               string
		granule            int64
		ctls, banksPerCtrl int
	}{
		{"granule below line", 32, 4, 2},
		{"granule not power of two", 96, 4, 2},
		{"controllers not power of two", 64, 3, 2},
		{"zero controllers", 64, 0, 2},
		{"banks not power of two", 64, 4, 3},
		{"zero banks", 64, 4, 0},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewInterleave did not panic", c.name)
				}
			}()
			NewInterleave("bad", c.granule, c.ctls, c.banksPerCtrl)
		}()
	}
}

func TestT2MappingPeriodProperty(t *testing.T) {
	m := T2()
	f := func(a uint32) bool {
		addr := Addr(a)
		return ControllerOf(m, addr) == ControllerOf(m, addr+Addr(m.Period())) &&
			m.Bank(addr) == m.Bank(addr+Addr(m.Period()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConsecutiveLinesRotateBanks(t *testing.T) {
	// "Consecutive 64-byte cache lines are served in turn by consecutive
	// cache banks and memory controllers."
	m := T2()
	for k := 0; k < 16; k++ {
		a := Addr(k * LineSize)
		if got, want := m.Bank(a), k%8; got != want {
			t.Fatalf("line %d: bank %d, want %d", k, got, want)
		}
		if got, want := ControllerOf(m, a), (k/2)%4; got != want {
			t.Fatalf("line %d: controller %d, want %d", k, got, want)
		}
	}
}

func TestMappingRangesProperty(t *testing.T) {
	for _, m := range []Mapping{T2(), XORMapping{}, Single(), NewInterleave("t2-wide4k", 4096, 4, 2)} {
		m := m
		f := func(a uint64) bool {
			addr := Addr(a)
			c := ControllerOf(m, addr)
			b := m.Bank(addr)
			return c >= 0 && c < m.Controllers() && b >= 0 && b < m.Banks()
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", m.Name(), err)
		}
	}
}

func TestXORMappingSpreadsPowerOfTwoStrides(t *testing.T) {
	// The ablation mapping must break the congruence that causes aliasing:
	// addresses 512 bytes apart must not all land on one controller.
	m := XORMapping{}
	seen := map[int]bool{}
	for k := 0; k < 64; k++ {
		seen[ControllerOf(m, Addr(k*512))] = true
	}
	if len(seen) != m.Controllers() {
		t.Errorf("XOR mapping covers %d controllers for 512-byte stride, want %d", len(seen), m.Controllers())
	}
}

func TestAlignUp(t *testing.T) {
	cases := []struct {
		a     Addr
		align int64
		want  Addr
	}{
		{0, 64, 0},
		{1, 64, 64},
		{64, 64, 64},
		{65, 64, 128},
		{8191, 8192, 8192},
		{8192, 8192, 8192},
	}
	for _, c := range cases {
		if got := AlignUp(c.a, c.align); got != c.want {
			t.Errorf("AlignUp(%d, %d) = %d, want %d", c.a, c.align, got, c.want)
		}
	}
}

func TestAlignUpProperty(t *testing.T) {
	f := func(a uint32, e uint8) bool {
		align := int64(1) << (e % 16)
		r := AlignUp(Addr(a), align)
		return r >= Addr(a) && IsAligned(r, align) && r < Addr(a)+Addr(align)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAlignUpPanicsOnBadAlignment(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AlignUp(_, 3) did not panic")
		}
	}()
	AlignUp(0, 3)
}

func TestLineOf(t *testing.T) {
	if LineOf(0x7f) != 0x40 {
		t.Errorf("LineOf(0x7f) = %#x", LineOf(0x7f))
	}
}

func TestResolveFastPathMatchesInterface(t *testing.T) {
	for _, m := range []Mapping{
		T2(),
		Single(),
		XORMapping{},
		NewInterleave("t2-1mc", LineSize, 1, 2),
		NewInterleave("t2-2mc", LineSize, 2, 2),
		NewInterleave("mc8", LineSize, 8, 2),
		NewInterleave("t2-wide1k", 1024, 4, 2),
		NewInterleave("t2-wide4k", 4096, 4, 2),
	} {
		r := Resolve(m)
		for _, base := range []Addr{0, 1 << 21, 1 << 40} {
			for off := Addr(0); off < 65536; off += LineSize {
				a := base + off
				if r.Bank(a) != m.Bank(a) {
					t.Fatalf("%s: Resolved.Bank(%#x) = %d, interface says %d", m.Name(), uint64(a), r.Bank(a), m.Bank(a))
				}
			}
		}
	}
}

func TestResolveFastPathSelection(t *testing.T) {
	if !Resolve(T2()).Fast() {
		t.Error("the T2 interleave should resolve to the bit-field fast path")
	}
	if !Resolve(Single()).Fast() {
		t.Error("the single interleave should resolve to the bit-field fast path")
	}
	if Resolve(XORMapping{}).Fast() {
		t.Error("XORMapping must fall back to the interface path")
	}
}
