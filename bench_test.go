package repro_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/alloc"
	"repro/internal/bench"
	"repro/internal/chip"
	"repro/internal/exp"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/omp"
	"repro/internal/phys"
	"repro/internal/segarray"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/trace"
)

// The benchmarks regenerate each figure of the paper at test scale and
// report the figure's headline metric. Run the cmd/figures binary with
// -scale full for the paper-scale sweeps recorded in EXPERIMENTS.md. The
// figure benchmarks reset the timer after building their options, so the
// timings and allocs/op count the sweeps alone. The deterministic work of
// the figure, ablation and daemon benchmarks (engine events, tag probes,
// gate work and allocations) is pinned by the work ledger
// (ledger_test.go); timing verdicts belong to the benchmark module's
// paired runs (benchmark/README.md).

func mean(ys []float64) float64 { return stats.Summarize(ys).Mean }

// simTotals accumulates a sweep's simulation telemetry across benchmark
// iterations and reports it in units that survive hardware changes:
// simulated cycles and simulated L2 line accesses retired per wallclock
// second.
type simTotals struct {
	cycles   int64
	accesses int64

	// Robustness telemetry (exp.Outcome's resilience counters). Zero on
	// every fault-free sweep, so the figure benchmarks report nothing new;
	// only BenchmarkResilience, which provokes the recovery paths on
	// purpose, populates these.
	pointErrors int64
	cancelMS    float64
}

// run executes the experiment, folds its telemetry into the totals, and
// returns the sweep's series.
func (st *simTotals) run(b *testing.B, e exp.Experiment) []stats.Series {
	out, err := exp.Runner{}.Run(e)
	if err != nil {
		b.Fatal(err)
	}
	st.fold(out)
	return out.Series()
}

// fold accumulates one outcome's telemetry, fault-free or not.
func (st *simTotals) fold(out exp.Outcome) {
	c, a := out.Totals()
	st.cycles += c
	st.accesses += a
	st.pointErrors += out.PointErrors
	if out.CancelLatencyMS > st.cancelMS {
		st.cancelMS = out.CancelLatencyMS
	}
}

func (st *simTotals) report(b *testing.B) {
	secs := b.Elapsed().Seconds()
	if secs <= 0 {
		return
	}
	b.ReportMetric(float64(st.cycles)/secs, "simcycles/s")
	b.ReportMetric(float64(st.accesses)/secs, "accesses/s")
	if st.pointErrors > 0 || st.cancelMS > 0 {
		// Robustness telemetry, per iteration (deterministic counts): how
		// much recovery machinery the sweep actually exercised. Fault-free
		// sweeps report none of this, keeping their metric sets unchanged.
		b.ReportMetric(float64(st.pointErrors)/float64(b.N), "point-errors")
		b.ReportMetric(st.cancelMS, "cancel-latency-ms")
	}
}

// BenchmarkFig2StreamTriadOffsets regenerates the Fig. 2 offset sweep and
// reports the bandwidth floor, ceiling and their ratio.
func BenchmarkFig2StreamTriadOffsets(b *testing.B) {
	o := bench.Small()
	var st simTotals
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := bench.Fig2FromSeries(st.run(b, o.Fig2Exp()))
		hi := r.Triad[len(r.Triad)-1]
		s := stats.Summarize(hi.Y)
		b.ReportMetric(s.Min, "floor-GB/s")
		b.ReportMetric(s.Max, "ceiling-GB/s")
		b.ReportMetric(s.Max/s.Min, "ceiling/floor")
	}
	st.report(b)
}

// BenchmarkFig4VectorTriadAlignment regenerates Fig. 4 and reports the
// page-aligned worst case against the planned-offset optimum.
func BenchmarkFig4VectorTriadAlignment(b *testing.B) {
	o := bench.Small()
	var st simTotals
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range st.run(b, o.Fig4Exp()) {
			switch s.Name {
			case "align8k":
				b.ReportMetric(mean(s.Y), "worst-GB/s")
			case "align8k+128":
				b.ReportMetric(mean(s.Y), "best-GB/s")
			}
		}
	}
	st.report(b)
}

// BenchmarkFig5SegmentedOverhead regenerates Fig. 5 and reports the
// relative overhead of segmented iterators at the largest N.
func BenchmarkFig5SegmentedOverhead(b *testing.B) {
	o := bench.Small()
	var st simTotals
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := st.run(b, o.Fig5Exp(64))
		seg, plain := series[0], series[1]
		n := seg.Len() - 1
		b.ReportMetric((plain.Y[n]-seg.Y[n])/plain.Y[n]*100, "overhead-%")
	}
	st.report(b)
}

// BenchmarkFig6Jacobi regenerates Fig. 6 and reports the optimized and
// plain 64-thread MLUPs/s.
func BenchmarkFig6Jacobi(b *testing.B) {
	o := bench.Small()
	var st simTotals
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range st.run(b, o.Fig6Exp()) {
			switch s.Name {
			case "64T":
				b.ReportMetric(mean(s.Y), "opt-MLUPs")
			case "64T plain":
				b.ReportMetric(mean(s.Y), "plain-MLUPs")
			}
		}
	}
	st.report(b)
}

// BenchmarkFig7LBM regenerates Fig. 7 and reports the fused IvJK level and
// the thrash-size dip.
func BenchmarkFig7LBM(b *testing.B) {
	o := bench.Small()
	var st simTotals
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range st.run(b, o.Fig7Exp()) {
			if s.Name == "64T IvJK fused" {
				sm := stats.Summarize(s.Y)
				b.ReportMetric(sm.Max, "peak-MLUPs")
				b.ReportMetric(sm.Min, "thrash-MLUPs")
			}
		}
	}
	st.report(b)
}

// ---- resilience ---------------------------------------------------------------

// BenchmarkResilience drives the two recovery paths of the resilient
// execution layer on purpose — a panicking point isolated into a
// structured PointError, and a sweep cancelled mid-run with partial
// telemetry — and reports the robustness telemetry (point-errors,
// cancel-latency-ms) that stays zero for every other benchmark in this
// file.
func BenchmarkResilience(b *testing.B) {
	base := machine.MustGet("t2").Config
	kernelExp := func(name string) exp.Experiment {
		return exp.Experiment{
			Name: name,
			Cfg:  base,
			Grid: exp.Grid{exp.Ints("x", 0, 1, 2, 3, 4, 5, 6, 7)},
			Run: func(cfg chip.Config, p exp.Point, sc *exp.Scratch) (exp.Result, error) {
				_, k := triadProg(int64(p.Int("x")), 1)
				prog := k.Program(omp.StaticBlock{}, 16)
				r, err := chip.New(cfg).RunCtx(sc.Context(), prog)
				if err != nil {
					return exp.Result{}, err
				}
				res := exp.Result{Series: "triad", X: float64(p.Int("x")), Y: r.GBps}
				res.Cycles = r.Cycles
				res.Accesses = r.L2.Hits + r.L2.Misses
				return res, nil
			},
		}
	}
	var st simTotals
	for i := 0; i < b.N; i++ {
		// One persistent panic: it surfaces as a PointError without
		// killing the pool, and the other points complete.
		e := kernelExp("resilience/panic")
		inner := e.Run
		e.Run = func(cfg chip.Config, p exp.Point, sc *exp.Scratch) (exp.Result, error) {
			if p.Index == 5 {
				panic("benchmark panic")
			}
			return inner(cfg, p, sc)
		}
		out, err := exp.Runner{Jobs: 2}.Run(e)
		var pe *exp.PointError
		if !errors.As(err, &pe) || len(out.Points) != 7 {
			b.Fatalf("panic sweep: err=%v points=%d, want a PointError and 7 points", err, len(out.Points))
		}
		st.fold(out)

		// Cancellation mid-sweep: the plug is pulled while the second point
		// is inside the engine, so that run aborts cooperatively with a
		// CancelError whose halt latency flows into the outcome.
		ctx, cancel := context.WithCancel(context.Background())
		started := make(chan struct{})
		var once sync.Once
		go func() { <-started; cancel() }()
		e2 := kernelExp("resilience/cancel")
		inner2 := e2.Run
		e2.Run = func(cfg chip.Config, p exp.Point, sc *exp.Scratch) (exp.Result, error) {
			if p.Index == 0 {
				return inner2(cfg, p, sc)
			}
			// Later points run a long simulation so the cancellation
			// provably lands mid-run.
			once.Do(func() { close(started) })
			_, k := triadProg(int64(p.Int("x")), 8)
			prog := k.Program(omp.StaticBlock{}, 64)
			r, err := chip.New(cfg).RunCtx(sc.Context(), prog)
			if err != nil {
				return exp.Result{}, err
			}
			return exp.Result{Series: "triad", X: float64(p.Int("x")), Y: r.GBps}, nil
		}
		out2, err := exp.Runner{Jobs: 1}.RunContext(ctx, e2)
		cancel()
		if err == nil || !out2.Cancelled {
			b.Fatalf("cancelled sweep: err=%v cancelled=%v, want an aborted partial outcome", err, out2.Cancelled)
		}
		st.fold(out2)
	}
	st.report(b)
}

// ---- daemon -------------------------------------------------------------------

// hitsPerOp is how many cached requests one daemon op serves: one more
// allocation per hit then adds 64 allocations per op, past the work
// ledger's slack.
const hitsPerOp = 64

// daemonHits serves one cached small sweep through the t2simd handler, in
// process and without sockets, and returns one op of the hit path:
// hitsPerOp requests, each a request decode, resolution memo, cache lookup
// and response.
func daemonHits(tb testing.TB) func() {
	h := service.New(service.Config{Jobs: 2}).Handler()
	const body = `{"figure":"fig5","scale":"small"}`
	serve := func() *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body)))
		return rr
	}
	if rr := serve(); rr.Code != http.StatusOK {
		tb.Fatalf("warm-up request: %d %s", rr.Code, rr.Body.String())
	}
	return func() {
		for k := 0; k < hitsPerOp; k++ {
			if rr := serve(); rr.Header().Get("X-T2simd-Cache") != "hit" {
				tb.Fatalf("request %d: %d, cache %q, want a hit", k, rr.Code, rr.Header().Get("X-T2simd-Cache"))
			}
		}
	}
}

// BenchmarkDaemonHit times the t2simd hit path, hitsPerOp hits per op.
func BenchmarkDaemonHit(b *testing.B) {
	op := daemonHits(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*hitsPerOp), "ns/hit")
}

// ---- ablations ---------------------------------------------------------------

func triadProg(offsetWords int64, sweeps int) (*alloc.Space, kernels.Stream) {
	sp := alloc.NewSpace()
	const n = 1 << 17
	bases := sp.Common(3, n+offsetWords, phys.WordSize)
	k := kernels.StreamTriad(bases[0], bases[1], bases[2], n)
	k.Sweeps = sweeps
	return sp, k
}

// runOn runs p on a fresh machine and adds the run's execution counters
// to w.
func runOn(w *chip.RunStats, cfg chip.Config, p *trace.Program) chip.Result {
	m := chip.New(cfg)
	r := m.Run(p)
	w.Add(m.LastRun())
	return r
}

func triadOn(w *chip.RunStats, cfg chip.Config, offsetWords int64) chip.Result {
	_, k := triadProg(offsetWords, 1)
	return runOn(w, cfg, k.Program(omp.StaticBlock{}, 64))
}

// ablationXOR (A1): rerunning the worst-case offset with a hashed
// controller interleave removes the aliasing entirely — the design
// question "would a hashed mapping have hidden the paper's effect?".
func ablationXOR(w *chip.RunStats) (t2, xor chip.Result) {
	t2 = triadOn(w, machine.MustGet("t2").Config, 0)
	cfg := machine.MustGet("t2").Config
	cfg.Mapping = phys.XORMapping{}
	return t2, triadOn(w, cfg, 0)
}

// ablationMSHR (A2): with more outstanding misses per strand, fewer
// threads are needed to hide latency — 8 threads with 4 MSHRs approach
// what 32 single-MSHR threads deliver (Sect. 1's motivation for running
// many threads per core).
func ablationMSHR(w *chip.RunStats) (one, four chip.Result) {
	_, k := triadProg(13, 1)
	one = runOn(w, machine.MustGet("t2").Config, k.Program(omp.StaticBlock{}, 8))
	cfg := machine.MustGet("t2").Config
	cfg.MSHRPerStrand = 4
	_, k4 := triadProg(13, 1)
	return one, runOn(w, cfg, k4.Program(omp.StaticBlock{}, 8))
}

// ablationTurnaround (A3): the bidirectional-transfer conjecture of Sect.
// 2.1 — removing the write-to-read channel coupling lifts read+write
// kernels but leaves load-only kernels unchanged.
func ablationTurnaround(w *chip.RunStats) (with, without chip.Result) {
	with = triadOn(w, machine.MustGet("t2").Config, 16)
	cfg := machine.MustGet("t2").Config
	cfg.Mem.WriteCouple = 0
	return with, triadOn(w, cfg, 16)
}

// ablationRunAhead (A4): the aliasing convoy requires strand phase
// coherence; widening the run-ahead window dissolves it and the
// worst-case offset recovers almost full bandwidth.
func ablationRunAhead(w *chip.RunStats) (coupled, free chip.Result) {
	coupled = triadOn(w, machine.MustGet("t2").Config, 0)
	cfg := machine.MustGet("t2").Config
	cfg.RunAhead = 0
	return coupled, triadOn(w, cfg, 0)
}

func BenchmarkAblationXORMapping(b *testing.B) {
	var w chip.RunStats
	for i := 0; i < b.N; i++ {
		t2, xor := ablationXOR(&w)
		b.ReportMetric(t2.GBps, "t2-GB/s")
		b.ReportMetric(xor.GBps, "xor-GB/s")
		b.ReportMetric(xor.GBps/t2.GBps, "xor/t2")
	}
}

func BenchmarkAblationMSHR(b *testing.B) {
	var w chip.RunStats
	for i := 0; i < b.N; i++ {
		one, four := ablationMSHR(&w)
		b.ReportMetric(one.GBps, "8T-1mshr-GB/s")
		b.ReportMetric(four.GBps, "8T-4mshr-GB/s")
	}
}

func BenchmarkAblationTurnaround(b *testing.B) {
	var w chip.RunStats
	for i := 0; i < b.N; i++ {
		with, without := ablationTurnaround(&w)
		b.ReportMetric(with.GBps, "coupled-GB/s")
		b.ReportMetric(without.GBps, "uncoupled-GB/s")
	}
}

func BenchmarkAblationRunAhead(b *testing.B) {
	var w chip.RunStats
	for i := 0; i < b.N; i++ {
		coupled, free := ablationRunAhead(&w)
		b.ReportMetric(coupled.GBps, "window2-GB/s")
		b.ReportMetric(free.GBps, "unbounded-GB/s")
	}
}

// ---- host-level Fig. 5: real iterator overhead --------------------------------

func hostArrays(n int64, threads int) (*segarray.Array[float64], *segarray.Array[float64], *segarray.Array[float64], *segarray.Array[float64]) {
	sp := alloc.NewSpace()
	lens := segarray.EqualSegments(n, threads)
	mk := func() *segarray.Array[float64] {
		a := segarray.NewArray[float64](segarray.Plan(sp, segarray.Params{ElemSize: 8, SegAlign: 512}, lens))
		for it := a.Begin(); it.Valid(); it.Next() {
			*it.Value() = 1.5
		}
		return a
	}
	return mk(), mk(), mk(), mk()
}

// BenchmarkSegIterHostSegments measures the paper's recommended pattern on
// real hardware: per-segment plain-slice loops (native speed).
func BenchmarkSegIterHostSegments(b *testing.B) {
	const n, threads = 1 << 16, 64
	a, x, y, z := hostArrays(n, threads)
	b.SetBytes(n * 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < threads; s++ {
			kernels.VectorTriad(a.Segment(s), x.Segment(s), y.Segment(s), z.Segment(s))
		}
	}
}

// BenchmarkSegIterHostIterator measures the general segmented iterator
// with its per-element segment-boundary branch — the overhead the paper's
// operator++ discussion warns about.
func BenchmarkSegIterHostIterator(b *testing.B) {
	const n = 1 << 16
	a, x, y, z := hostArrays(n, 64)
	b.SetBytes(n * 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ia, ix, iy, iz := a.Begin(), x.Begin(), y.Begin(), z.Begin()
		for ia.Valid() {
			*ia.Value() = *ix.Value() + *iy.Value()**iz.Value()
			ia.Next()
			ix.Next()
			iy.Next()
			iz.Next()
		}
	}
}

// BenchmarkSegIterHostPlain is the contiguous-slice baseline.
func BenchmarkSegIterHostPlain(b *testing.B) {
	const n = 1 << 16
	a := make([]float64, n)
	x := make([]float64, n)
	y := make([]float64, n)
	z := make([]float64, n)
	for i := range x {
		x[i], y[i], z[i] = 1, 2, 3
	}
	b.SetBytes(n * 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.VectorTriad(a, x, y, z)
	}
}
