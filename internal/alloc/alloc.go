// Package alloc simulates the address-space behaviour of the allocation
// interfaces the paper exercises: plain malloc (contiguous blocks with
// allocator headers, so base addresses depend on previous allocation
// sizes), posix_memalign (explicit power-of-two alignment), and a
// Fortran-style COMMON block in which consecutive arrays are padded by a
// configurable word offset (the STREAM "offset" experiment of Sect. 2.1).
//
// Because page sizes (>= 4 kB) exceed the 512-byte controller interleave
// period, the paper notes that the distinction between physical and virtual
// addresses does not matter; the simulated space is therefore identity
// mapped and a single bump region suffices.
package alloc

import (
	"fmt"

	"repro/internal/phys"
)

// MallocHeader is the bookkeeping overhead a typical malloc places before
// each block; it makes consecutive plain allocations land size+header
// apart, which is what produces the erratic, N-dependent base offsets of
// the "plain" curves in Fig. 4.
const MallocHeader = 16

// MallocAlign is the guaranteed alignment of plain Malloc results.
const MallocAlign = 16

// Space is a simulated process heap. The zero value is not usable; create
// one with NewSpace.
type Space struct {
	base phys.Addr
	brk  phys.Addr
}

// NewSpace returns a heap whose first usable byte is at a page-aligned,
// interleave-aligned base, mirroring a freshly mapped arena.
func NewSpace() *Space {
	const heapBase = 0x10000000 // page- and period-aligned
	return &Space{base: heapBase, brk: heapBase}
}

// Base returns the start of the arena.
func (s *Space) Base() phys.Addr { return s.base }

// Malloc allocates size bytes the way a typical libc does: a 16-byte
// header precedes the block and the returned address is 16-byte aligned.
func (s *Space) Malloc(size int64) phys.Addr {
	if size < 0 {
		panic(fmt.Sprintf("alloc: negative size %d", size))
	}
	p := phys.AlignUp(s.brk+MallocHeader, MallocAlign)
	s.brk = p + phys.Addr(size)
	return p
}

// Memalign allocates size bytes aligned to align (a power of two), the
// posix_memalign equivalent used for the "align 8k" experiments.
func (s *Space) Memalign(align, size int64) phys.Addr {
	if size < 0 {
		panic(fmt.Sprintf("alloc: negative size %d", size))
	}
	p := phys.AlignUp(s.brk+MallocHeader, align)
	s.brk = p + phys.Addr(size)
	return p
}

// Common lays out n arrays of ndim elements of elemSize bytes back to back
// starting at a period-aligned base, exactly like the Fortran COMMON block
// in the STREAM source: the arrays are declared with ndim = N + offset
// elements, so their base addresses differ by ndim*elemSize even though
// only N elements are used. It returns the base address of each array.
func (s *Space) Common(n int, ndim, elemSize int64) []phys.Addr {
	if n <= 0 || ndim < 0 || elemSize <= 0 {
		panic(fmt.Sprintf("alloc: bad COMMON block n=%d ndim=%d elemSize=%d", n, ndim, elemSize))
	}
	base := phys.AlignUp(s.brk, phys.PageSize)
	bases := make([]phys.Addr, n)
	for i := range bases {
		bases[i] = base + phys.Addr(int64(i)*ndim*elemSize)
	}
	s.brk = base + phys.Addr(int64(n)*ndim*elemSize)
	return bases
}

// OffsetBases allocates n arrays of size bytes, each aligned to align and
// then displaced by i*offset bytes for array i — the explicit-offset
// placement of Sect. 2.2 ("arrays B, C and D are shifted by one, two, and
// three times the indicated offset").
func (s *Space) OffsetBases(n int, size, align, offset int64) []phys.Addr {
	bases := make([]phys.Addr, n)
	for i := range bases {
		p := phys.AlignUp(s.brk+MallocHeader, align)
		p += phys.Addr(int64(i) * offset)
		bases[i] = p
		s.brk = p + phys.Addr(size)
	}
	return bases
}
