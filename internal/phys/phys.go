// Package phys models the physical address space of the simulated machine:
// address arithmetic, cache-line and page geometry, and the policies that
// map a physical address to an L2 cache bank. Every bank is attached to
// one memory controller, consecutive banks in equal groups, so a line's
// bank fixes its controller (ControllerOf); no mapping decodes the
// controller on its own.
//
// Nothing about the paper's central mechanism is specific to one chip: any
// machine whose controller is selected by a fixed bit field of the physical
// address exhibits the same congruence effects, with the period set by the
// field position and width. Interleave captures that whole family as one
// parameterized, constructor-validated mapping; the UltraSPARC T2 policy of
// the paper's Sect. 1 — bits 8:7 select one of four memory controllers,
// bit 6 one of the two L2 banks attached to it, for a 512-byte period — is
// the T2() instance.
package phys

import (
	"fmt"
	"math/bits"
)

// Addr is a physical byte address in the simulated machine.
type Addr uint64

// Geometry constants of the simulated T2. The line size is fixed at 64
// bytes throughout the model; pages are 8 kB (the smallest Solaris page
// size used in the paper, relevant for posix_memalign-to-page experiments).
const (
	LineShift = 6
	LineSize  = 1 << LineShift // 64 B, the L2 cache line
	PageSize  = 8192           // 8 kB
	WordSize  = 8              // a double-precision word
)

// LineOf returns the address of the cache line containing a.
func LineOf(a Addr) Addr { return a &^ (LineSize - 1) }

// AlignUp rounds a up to the next multiple of align. align must be a
// power of two; AlignUp panics otherwise because a mis-specified alignment
// silently destroys every placement experiment built on top of it.
func AlignUp(a Addr, align int64) Addr {
	if align <= 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("phys: alignment %d is not a positive power of two", align))
	}
	m := Addr(align - 1)
	return (a + m) &^ m
}

// IsAligned reports whether a is a multiple of align (align a power of two).
func IsAligned(a Addr, align int64) bool {
	if align <= 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("phys: alignment %d is not a positive power of two", align))
	}
	return a&Addr(align-1) == 0
}

// Mapping decides which L2 bank serves a given physical address, and so
// (ControllerOf) which memory controller. Implementations must be pure
// functions of the address, and Banks() must be a multiple of
// Controllers().
type Mapping interface {
	// Bank returns the global L2 bank index in [0, Banks()) for the line
	// containing a.
	Bank(a Addr) int
	// Controllers returns the number of memory controllers.
	Controllers() int
	// Banks returns the number of L2 banks.
	Banks() int
	// Period returns the smallest positive byte distance p such that
	// ControllerOf(m, a) == ControllerOf(m, a+p) for all a, i.e. the
	// spatial period of the controller interleave. 512 bytes on the T2.
	Period() int64
	// Name identifies the mapping in reports.
	Name() string
}

// Interleave is the parameterized bit-field address interleave: BankBits
// address bits starting at BankShift pick the bank within a controller,
// and CtrlBits bits directly above them pick the controller. The global
// bank index is the whole CtrlBits+BankBits field at BankShift, so
// consecutive granules of 1<<BankShift bytes are served by consecutive
// banks and controllers with a period of
// granule x banks-per-controller x controllers bytes.
//
// Resolve recognises every machine in this family, so the cache's hot
// path devirtualizes it to one shift/mask extraction. Build instances
// with NewInterleave, which validates the geometry; the zero value is
// invalid.
type Interleave struct {
	Label     string // mapping name, reported by Name
	BankShift uint   // log2 of the interleave granule in bytes
	BankBits  uint   // log2 of banks per controller
	CtrlBits  uint   // log2 of controllers
}

// NewInterleave builds a validated interleave: granule bytes (a power of
// two, at least one cache line) go to each bank in turn, banksPerCtrl
// banks per controller, controllers controllers (both powers of two). It
// panics on impossible geometry, since a silently wrong interleave would
// invalidate every placement result computed on top of it.
func NewInterleave(label string, granule int64, controllers, banksPerCtrl int) Interleave {
	if granule < LineSize || granule&(granule-1) != 0 {
		panic(fmt.Sprintf("phys: interleave granule %d is not a power of two >= the %d-byte line", granule, LineSize))
	}
	if controllers <= 0 || controllers&(controllers-1) != 0 {
		panic(fmt.Sprintf("phys: controller count %d is not a positive power of two", controllers))
	}
	if banksPerCtrl <= 0 || banksPerCtrl&(banksPerCtrl-1) != 0 {
		panic(fmt.Sprintf("phys: banks-per-controller %d is not a positive power of two", banksPerCtrl))
	}
	if label == "" {
		panic("phys: interleave needs a label")
	}
	return Interleave{
		Label:     label,
		BankShift: uint(bits.TrailingZeros64(uint64(granule))),
		BankBits:  uint(bits.TrailingZeros64(uint64(banksPerCtrl))),
		CtrlBits:  uint(bits.TrailingZeros64(uint64(controllers))),
	}
}

// T2 returns the documented UltraSPARC T2 address interleave: 4
// controllers x 2 banks x 64-byte granules, i.e. controller = bits 8:7,
// global bank = bits 8:6, period 512 bytes.
func T2() Interleave { return NewInterleave("t2", LineSize, 4, 2) }

// Single returns the degenerate one-controller, one-bank interleave used
// as the no-interleaving baseline.
func Single() Interleave { return NewInterleave("single", LineSize, 1, 1) }

// Bank returns the global bank index: the CtrlBits+BankBits-wide field at
// BankShift, so two granules under one controller are followed by the next
// controller's granules.
func (iv Interleave) Bank(a Addr) int {
	return int(uint64(a)>>iv.BankShift) & (1<<(iv.BankBits+iv.CtrlBits) - 1)
}

// Controllers returns the number of memory controllers.
func (iv Interleave) Controllers() int { return 1 << iv.CtrlBits }

// Banks returns the global bank count: controllers x banks-per-controller.
func (iv Interleave) Banks() int { return 1 << (iv.BankBits + iv.CtrlBits) }

// Period returns the spatial period of the controller interleave: the
// bank granule (1 << BankShift bytes) times the bank count.
func (iv Interleave) Period() int64 { return int64(1) << (iv.BankShift + iv.BankBits + iv.CtrlBits) }

// Name returns the label.
func (iv Interleave) Name() string { return iv.Label }

// XORMapping is an ablation policy: the bank, and so the controller, is
// selected by XOR-folding many address bits, so regular strides no longer alias onto a
// single controller. It answers the design question "would a hashed
// interleave have hidden the effects the paper reports?".
type XORMapping struct{}

func xorFold(a Addr) uint64 {
	x := uint64(a) >> LineShift
	// Fold 30 bits of line index into 3. Any fixed full-rank fold works;
	// this one mixes bits far enough apart that all strides the paper uses
	// (powers of two up to megabytes) hit all controllers uniformly.
	x ^= x >> 3
	x ^= x >> 6
	x ^= x >> 12
	x ^= x >> 24
	return x & 7
}

// Bank returns the folded line index; its upper two bits are the
// controller.
func (XORMapping) Bank(a Addr) int { return int(xorFold(a)) }

// Controllers returns 4.
func (XORMapping) Controllers() int { return 4 }

// Banks returns 8.
func (XORMapping) Banks() int { return 8 }

// Period returns 0: a hashed interleave has no meaningful spatial period.
func (XORMapping) Period() int64 { return 0 }

// Name returns "xor".
func (XORMapping) Name() string { return "xor" }

// ControllerOf returns the memory-controller index in [0, Controllers())
// for the line containing a: the controller its bank is attached to. Every
// controller owns Banks()/Controllers() consecutive banks, so on an
// Interleave this is the controller field above the bank-within-controller
// bits, and on the XOR fold the fold's upper two bits.
func ControllerOf(m Mapping, a Addr) int {
	return m.Bank(a) / (m.Banks() / m.Controllers())
}

// Resolved is a devirtualized mapping handle, bound once at model
// construction time. For an Interleave, Bank is a branch-predictable
// shift/mask extraction that the compiler inlines into the cache's hot
// loop; for all other mappings (XOR folds and other hashes) it falls back
// to the Mapping interface.
type Resolved struct {
	m         Mapping
	fast      bool
	bankShift uint64
	bankMask  uint64
}

// Resolve binds m into a devirtualized handle, reading an Interleave's bit
// fields directly.
func Resolve(m Mapping) Resolved {
	iv, ok := m.(Interleave)
	if !ok {
		return Resolved{m: m}
	}
	return Resolved{
		m:         m,
		fast:      true,
		bankShift: uint64(iv.BankShift),
		bankMask:  uint64(iv.Banks() - 1),
	}
}

// Bank returns the L2 bank index for the line containing a.
func (r Resolved) Bank(a Addr) int {
	if r.fast {
		return int(uint64(a) >> r.bankShift & r.bankMask)
	}
	return r.m.Bank(a)
}

// BankField returns the bit position of the bank field when the fast path
// is active. The field is the whole global bank index, Banks() values wide.
func (r Resolved) BankField() (shift uint, ok bool) {
	return uint(r.bankShift), r.fast
}

// Fast reports whether the handle uses the bit-field fast path.
func (r Resolved) Fast() bool { return r.fast }

var (
	_ Mapping = Interleave{}
	_ Mapping = XORMapping{}
)
