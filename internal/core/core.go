// Package core implements the paper's contribution as a reusable library:
// given the address-to-controller mapping of the machine and the stream
// signature of a loop kernel, it analyzes controller aliasing and computes
// the placement parameters — per-array offsets, segment alignment and
// shift, and a loop schedule — that give uniform utilization of all memory
// controllers. This is the analytical recipe of Sects. 2.1-2.3: "these
// parameters ... can be obtained by analyzing the data access properties
// of the loop kernel, together with some knowledge about the mapping
// between addresses and memory controllers. No trial and error is
// required."
package core

import (
	"fmt"

	"repro/internal/phys"
)

// period returns the mapping's controller-interleave period in bytes,
// falling back to one line for hashed mappings with no period. The line
// size is phys.LineSize on every machine.
func period(m phys.Mapping) int64 {
	if p := m.Period(); p > 0 {
		return p
	}
	return phys.LineSize
}

// StreamSet describes the concurrent access streams of one loop iteration
// window: all streams advance by Stride bytes per step, in lockstep. This
// captures STREAM kernels (2-3 streams), the vector triad (4) and the
// per-thread stream bundles of stencil and LBM codes.
type StreamSet struct {
	Bases  []phys.Addr
	Stride int64 // bytes advanced per step; typically the line size
}

// Utilization returns the fraction of line accesses each controller
// receives when the stream set advances steps times. With a periodic
// mapping the distribution converges within Period/Stride steps.
func Utilization(m phys.Mapping, ss StreamSet, steps int) []float64 {
	if steps <= 0 {
		steps = int(period(m) / phys.LineSize * 2)
		if steps <= 0 {
			steps = 16
		}
	}
	counts := make([]int64, m.Controllers())
	var total int64
	for k := 0; k < steps; k++ {
		for _, b := range ss.Bases {
			a := b + phys.Addr(int64(k)*ss.Stride)
			counts[phys.ControllerOf(m, a)]++
			total++
		}
	}
	out := make([]float64, len(counts))
	if total == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(total)
	}
	return out
}

// MeanConcurrency returns the average number of distinct controllers the
// stream set addresses per step — the quantity that decides between the
// "one controller at a time" convoy and uniform utilization. It ranges
// from 1 to min(len(bases), controllers).
func MeanConcurrency(m phys.Mapping, ss StreamSet, steps int) float64 {
	if steps <= 0 {
		steps = int(period(m) / phys.LineSize * 2)
		if steps <= 0 {
			steps = 16
		}
	}
	seen := make([]bool, m.Controllers())
	var sum float64
	for k := 0; k < steps; k++ {
		for i := range seen {
			seen[i] = false
		}
		n := 0
		for _, b := range ss.Bases {
			c := phys.ControllerOf(m, b+phys.Addr(int64(k)*ss.Stride))
			if !seen[c] {
				seen[c] = true
				n++
			}
		}
		sum += float64(n)
	}
	return sum / float64(steps)
}

// PredictRelativeBandwidth estimates the bandwidth of the stream set
// relative to the best achievable on this machine: the mean controller
// concurrency as a fraction of the controller count. 0.25 on the T2 is
// the full convoy, 1.0 the uniform optimum.
func PredictRelativeBandwidth(m phys.Mapping, ss StreamSet) float64 {
	return MeanConcurrency(m, ss, 0) / float64(m.Controllers())
}

// Regime classifies a stream set the way Sect. 2.1 discusses the STREAM
// offsets: "convoy" (about one controller), "partial", or "uniform".
func Regime(m phys.Mapping, ss StreamSet) string {
	c := MeanConcurrency(m, ss, 0)
	n := float64(m.Controllers())
	switch {
	case c <= 1.25:
		return "convoy"
	case c >= 0.75*n:
		return "uniform"
	default:
		return "partial"
	}
}

// ArrayPlan is a set of per-array byte offsets for a multi-stream kernel.
type ArrayPlan struct {
	Offsets     []int64 // byte offset to add to array i's aligned base
	Concurrency float64 // predicted mean controller concurrency
}

// PlanArrayOffsets computes base-address offsets for a kernel with the
// given number of concurrent streams, assuming all arrays are first
// aligned to a common boundary (a page, say). Stream i is displaced by
// i * Period/Controllers bytes, so at every loop step the streams address
// distinct controllers — the 128/256/384-byte recipe that makes the vector
// triad flat in Fig. 4.
func PlanArrayOffsets(m phys.Mapping, streams int) ArrayPlan {
	if streams <= 0 {
		panic(fmt.Sprintf("core: %d streams", streams))
	}
	step := period(m) / int64(m.Controllers())
	// Keep offsets line-aligned so element blocks do not straddle lines.
	if step%phys.LineSize != 0 {
		step = (step / phys.LineSize) * phys.LineSize
		if step == 0 {
			step = phys.LineSize
		}
	}
	p := ArrayPlan{Offsets: make([]int64, streams)}
	for i := range p.Offsets {
		p.Offsets[i] = int64(i) * step
	}
	bases := make([]phys.Addr, streams)
	for i := range bases {
		bases[i] = phys.Addr(p.Offsets[i])
	}
	p.Concurrency = MeanConcurrency(m, StreamSet{Bases: bases, Stride: phys.LineSize}, 0)
	return p
}

// RowPlan is the segmented-array placement for row-organized kernels
// (stencil codes): align every row to the interleave period and shift
// successive rows by one controller step, so the concurrent row bundle
// {i-1, i, i+1} of a stencil — and the row sets of neighbouring threads —
// address different controllers.
type RowPlan struct {
	SegAlign int64  // per-segment alignment: the interleave period (512 B)
	Shift    int64  // per-segment shift: Period / Controllers (128 B)
	Schedule string // recommended OpenMP schedule
}

// PlanRows returns the stencil-row placement of Sect. 2.3, including the
// "static,1" schedule recommendation: round-robin rows keep the team's
// working band contiguous so shared source rows stay in the L2.
func PlanRows(m phys.Mapping) RowPlan {
	return RowPlan{
		SegAlign: period(m),
		Shift:    period(m) / int64(m.Controllers()),
		Schedule: "static,1",
	}
}

// PhaseSpread returns the number of distinct controllers addressed by n
// streams whose base addresses are i*stride apart — the quantity that
// explains why the IvJK lattice-Boltzmann layout (stride = one padded row)
// beats IJKv (stride = a whole padded cube): an odd row stride spreads the
// 19 distribution-function streams over all controllers automatically.
func PhaseSpread(m phys.Mapping, stride int64, n int) int {
	seen := make(map[int]bool)
	for i := 0; i < n; i++ {
		seen[phys.ControllerOf(m, phys.Addr(int64(i)*stride))] = true
	}
	return len(seen)
}

// AdviseLayout picks between two candidate multi-dimensional layouts by
// the controller spread of their stream bundles. strideA and strideB are
// the byte distances between consecutive streams (e.g. distribution
// functions) in each layout; the layout with the wider spread wins.
func AdviseLayout(m phys.Mapping, nameA string, strideA int64, nameB string, strideB int64, streams int) string {
	a := PhaseSpread(m, strideA, streams)
	b := PhaseSpread(m, strideB, streams)
	if b > a {
		return nameB
	}
	return nameA
}

// ExplainStreamOffset reproduces the Sect. 2.1 analysis of the STREAM
// COMMON-block experiment: for a given word offset it returns the
// controller phases of the three arrays and the predicted regime.
func ExplainStreamOffset(m phys.Mapping, n, offsetWords int64) (phases []int, regime string) {
	ndim := n + offsetWords
	bases := []phys.Addr{
		0,
		phys.Addr(ndim * phys.WordSize),
		phys.Addr(2 * ndim * phys.WordSize),
	}
	phases = make([]int, len(bases))
	for i, b := range bases {
		phases[i] = phys.ControllerOf(m, b)
	}
	return phases, Regime(m, StreamSet{Bases: bases, Stride: phys.LineSize})
}
