package segarray

// Array is the host-side segmented container of the Fig. 5 iterator
// benchmarks: real Go storage shaped like a Layout, with one plain slice
// per segment (Segment) for native-speed inner loops (the paper's
// "separate function is called to handle a single segment") and a general
// iterator (Begin) whose per-step segment-boundary branch is the overhead
// the paper measures.
type Array[T any] struct {
	segs [][]T
}

// NewArray builds host storage for an existing layout. Segment placement
// (padding bytes) is reproduced only logically; the host slices are
// per-segment allocations, which is all the host-side experiments need.
func NewArray[T any](l Layout) *Array[T] {
	a := &Array[T]{segs: make([][]T, len(l.Segs))}
	for i, s := range l.Segs {
		a.segs[i] = make([]T, s.Len)
	}
	return a
}

// Segment returns the s-th segment as a plain slice — the fast path.
func (a *Array[T]) Segment(s int) []T { return a.segs[s] }

// Iter is the general segmented iterator. Each advance carries the
// segment-boundary branch that the paper's operator++ discussion warns
// about; compare BenchmarkSegIterHost* for the measured cost on a host.
type Iter[T any] struct {
	a   *Array[T]
	seg int
	idx int
}

// Begin returns an iterator at the first element.
func (a *Array[T]) Begin() Iter[T] {
	it := Iter[T]{a: a}
	it.skipEmpty()
	return it
}

func (it *Iter[T]) skipEmpty() {
	for it.seg < len(it.a.segs) && it.idx >= len(it.a.segs[it.seg]) {
		it.seg++
		it.idx = 0
	}
}

// Valid reports whether the iterator points at an element.
func (it *Iter[T]) Valid() bool { return it.seg < len(it.a.segs) }

// Value returns a pointer to the current element.
func (it *Iter[T]) Value() *T { return &it.a.segs[it.seg][it.idx] }

// Next advances to the next element, crossing segment boundaries.
func (it *Iter[T]) Next() {
	it.idx++
	if it.idx >= len(it.a.segs[it.seg]) {
		it.seg++
		it.idx = 0
		it.skipEmpty()
	}
}
