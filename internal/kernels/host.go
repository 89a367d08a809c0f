// Package kernels provides the bandwidth benchmark kernels of Sects. 2.1
// and 2.2 — the four McCalpin STREAM operations and the Schönauer vector
// triad — as trace compilers that turn a kernel plus array placement into
// a per-thread work-item program for the simulated T2. One generator,
// Stream's, runs every streaming kernel: a segmented kernel (SegStream) is
// the same static loop with each thread's bases moved to its own segments.
// Its one host implementation is VectorTriad, the inner loop of the
// host-side segmented-iterator benchmarks (BenchmarkSegIterHost*).
package kernels

// VectorTriad performs the Schönauer vector triad a = b + c*d, the
// three-read-stream kernel of Sect. 2.2.
func VectorTriad(a, b, c, d []float64) {
	for i := range a {
		a[i] = b[i] + c[i]*d[i]
	}
}
