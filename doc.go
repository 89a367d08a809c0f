// Package repro reproduces "Data Access Optimizations for Highly Threaded
// Multi-Core CPUs with Multiple Memory Controllers" (Hager, Zeiser,
// Wellein; arXiv:0712.2302, 2008) as a Go library: a cycle-approximate
// simulator of the Sun UltraSPARC T2 memory subsystem plus the paper's
// data-placement toolkit (segmented arrays, the alignment/offset planner,
// OpenMP-style scheduling) and harnesses that regenerate every figure of
// the paper's evaluation.
//
// The implementation lives under internal/; entry points are the binaries
// in cmd/ (t2sim, figures, placement, and the t2simd service daemon), the
// runnable examples under examples/, the benchmarks in bench_test.go, and
// the work ledger in ledger_test.go. Every figure sweep runs as a declarative
// experiment on the internal/exp worker pool, so regeneration
// parallelizes across GOMAXPROCS with byte-identical output; each point
// runs on the one sequential timing engine in internal/chip, and the
// sweep pool's -jobs is the only execution parallelism. Machines are
// named profiles in internal/machine (the calibrated t2 default plus
// controller-scaling and interleave-granularity variants); every CLI
// takes -machine and the analyzer plans placements from the selected
// profile's interleave. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-vs-measured results.
//
// Exit codes follow one repo-wide convention, documented per binary in
// each cmd/*/main.go:
//
//	0  success (for t2simd: clean shutdown, including a drain that had to
//	   cancel in-flight work at the deadline — graceful degradation is
//	   success)
//	1  runtime failure (simulation error, shape-check FAIL, unwritable
//	   output)
//	2  usage or flag misuse
//	3  wall-clock budget expired (-timeout)
//
// The t2simd daemon maps the same classes onto HTTP statuses instead of
// exit codes, per request: 400 validation (the class exit code 2 covers),
// 429/503 + Retry-After load shedding, 499 client-closed request, 504
// deadline (the class exit code 3 covers), 500 internal.
package repro
