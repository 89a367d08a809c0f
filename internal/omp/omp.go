// Package omp reproduces the OpenMP loop-scheduling semantics the paper's
// kernels rely on: schedule(static) block partitioning, schedule(static,1)
// round-robin (decisive for the Jacobi solver in Sect. 2.3), dynamic and
// guided self-scheduling, and outer-loop coalescing ("fused I-J" in
// Sect. 2.4, which removes the sawtooth modulo effect in Fig. 7).
//
// Assigners hand out iteration chunks. For the self-scheduling policies the
// order of Next calls matters; the chip's event engine calls Next in
// simulation-time order, which is exactly the semantics of a work queue.
package omp

import "fmt"

// Chunk is a half-open iteration range [Lo, Hi).
type Chunk struct{ Lo, Hi int64 }

// Len returns the number of iterations in the chunk.
func (c Chunk) Len() int64 { return c.Hi - c.Lo }

// Assigner hands out chunks of a single parallel loop instance to threads.
// Next returns the next chunk for the given thread and ok=false when the
// thread has no further work.
type Assigner interface {
	Next(thread int) (Chunk, bool)
}

// Schedule creates Assigners for loop instances of a given trip count and
// team size.
type Schedule interface {
	Assigner(n int64, threads int) Assigner
	String() string
}

// ---- schedule(static) -------------------------------------------------

// StaticBlock is schedule(static) with no chunk size: the iteration space
// is split into one contiguous block per thread, the first n%T threads
// receiving one extra iteration (the floor/ceil split the paper describes
// for its manual segmented scheduling).
type StaticBlock struct{}

// Assigner implements Schedule.
func (StaticBlock) Assigner(n int64, threads int) Assigner {
	return &staticBlock{n: n, threads: threads, done: make([]bool, threads)}
}

// String returns "static".
func (StaticBlock) String() string { return "static" }

type staticBlock struct {
	n       int64
	threads int
	done    []bool
}

func (a *staticBlock) Next(t int) (Chunk, bool) {
	if t < 0 || t >= a.threads || a.done[t] {
		return Chunk{}, false
	}
	a.done[t] = true
	q := a.n / int64(a.threads)
	r := a.n % int64(a.threads)
	var lo int64
	if int64(t) < r {
		lo = int64(t) * (q + 1)
	} else {
		lo = r*(q+1) + (int64(t)-r)*q
	}
	hi := lo + q
	if int64(t) < r {
		hi++
	}
	if lo >= hi {
		return Chunk{}, false
	}
	return Chunk{lo, hi}, true
}

// ---- schedule(static, chunk) -------------------------------------------

// StaticChunk is schedule(static, Size): chunks of Size iterations are
// dealt round-robin to the team. StaticChunk{Size: 1} is the "static,1"
// schedule that the Jacobi experiment requires.
type StaticChunk struct{ Size int64 }

// Assigner implements Schedule.
func (s StaticChunk) Assigner(n int64, threads int) Assigner {
	size := s.Size
	if size <= 0 {
		size = 1
	}
	return &staticChunk{n: n, threads: threads, size: size, k: make([]int64, threads)}
}

// String returns "static,<size>".
func (s StaticChunk) String() string { return fmt.Sprintf("static,%d", s.Size) }

type staticChunk struct {
	n, size int64
	threads int
	k       []int64 // per-thread round counter
}

func (a *staticChunk) Next(t int) (Chunk, bool) {
	if t < 0 || t >= a.threads {
		return Chunk{}, false
	}
	lo := (int64(t) + a.k[t]*int64(a.threads)) * a.size
	if lo >= a.n {
		return Chunk{}, false
	}
	a.k[t]++
	hi := lo + a.size
	if hi > a.n {
		hi = a.n
	}
	return Chunk{lo, hi}, true
}

// ---- schedule(dynamic, chunk) -------------------------------------------

// Dynamic is schedule(dynamic, Size): threads grab the next chunk from a
// shared counter when they become idle.
type Dynamic struct{ Size int64 }

// Assigner implements Schedule.
func (d Dynamic) Assigner(n int64, threads int) Assigner {
	size := d.Size
	if size <= 0 {
		size = 1
	}
	return &dynamic{n: n, size: size}
}

// String returns "dynamic,<size>".
func (d Dynamic) String() string { return fmt.Sprintf("dynamic,%d", d.Size) }

type dynamic struct {
	n, size, next int64
}

func (a *dynamic) Next(int) (Chunk, bool) {
	if a.next >= a.n {
		return Chunk{}, false
	}
	lo := a.next
	hi := lo + a.size
	if hi > a.n {
		hi = a.n
	}
	a.next = hi
	return Chunk{lo, hi}, true
}

// ---- schedule(guided, min) ----------------------------------------------

// Guided is schedule(guided, Min): each grab takes ceil(remaining/threads)
// iterations, never fewer than Min.
type Guided struct{ Min int64 }

// Assigner implements Schedule.
func (g Guided) Assigner(n int64, threads int) Assigner {
	min := g.Min
	if min <= 0 {
		min = 1
	}
	return &guided{n: n, min: min, threads: int64(threads)}
}

// String returns "guided,<min>".
func (g Guided) String() string { return fmt.Sprintf("guided,%d", g.Min) }

type guided struct {
	n, next, min, threads int64
}

func (a *guided) Next(int) (Chunk, bool) {
	if a.next >= a.n {
		return Chunk{}, false
	}
	remaining := a.n - a.next
	size := (remaining + a.threads - 1) / a.threads
	if size < a.min {
		size = a.min
	}
	lo := a.next
	hi := lo + size
	if hi > a.n {
		hi = a.n
	}
	a.next = hi
	return Chunk{lo, hi}, true
}

// ---- loop coalescing ------------------------------------------------------

// Split2 maps a coalesced index in [0, n1*n2) back to the (i1, i2) pair of
// a fused two-deep loop nest, i1 being the outer index. It is the inverse
// of the "coalesce several outer loop levels" transformation of Sect. 2.4.
func Split2(idx, n2 int64) (i1, i2 int64) { return idx / n2, idx % n2 }

var (
	_ Schedule = StaticBlock{}
	_ Schedule = StaticChunk{}
	_ Schedule = Dynamic{}
	_ Schedule = Guided{}
)
