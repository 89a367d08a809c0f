// Package bench contains the experiment harnesses that regenerate every
// figure of the paper's evaluation (Figs. 2, 4, 5, 6, 7) on the simulated
// T2, plus shape checks that encode the paper's qualitative claims — who
// wins, by what factor, with which periodicity — as testable predicates.
//
// Every figure is a declarative exp.Experiment: a parameter grid plus a
// closure evaluating one grid point on one freshly built machine. The
// exp worker pool fans the points out across GOMAXPROCS goroutines and
// reassembles them in deterministic grid order, so regenerating a figure
// with -jobs N is bit-identical to -jobs 1. See DESIGN.md Sect. 5 for the
// scale reductions and EXPERIMENTS.md for regenerated results.
package bench

import (
	"fmt"
	"strings"

	"repro/internal/alloc"
	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/jacobi"
	"repro/internal/kernels"
	"repro/internal/lbm"
	"repro/internal/machine"
	"repro/internal/omp"
	"repro/internal/phys"
	"repro/internal/segarray"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Options scales the experiments. Paper-scale array lengths are structure-
// preserving reductions of the originals (see DESIGN.md Sect. 5); Small()
// shrinks them further for unit tests.
type Options struct {
	Cfg chip.Config
	// Machine is the profile name stamped into BENCH trajectories. Empty
	// means the default t2 machine (and keeps historical BENCH_*.json
	// byte-identical); WithProfile sets it for every other profile.
	Machine string

	// Fig. 2
	StreamN      int64
	OffsetMax    int64
	OffsetStep   int64
	Fig2Threads  []int
	StreamSweeps int

	// Fig. 4
	TriadN    int64 // window base
	TriadLen  int64 // window length in elements
	TriadStep int64

	// Fig. 5
	Fig5Ns []int64

	// Fig. 6
	JacobiNs      []int64
	JacobiThreads []int
	JacobiSweeps  int

	// Fig. 7
	LBMNs     []int64
	LBMSweeps int

	// Controller-scaling study (BENCH_scaling)
	ScalingN int64
}

// Default returns the full-scale reproduction settings. Sizes are
// structure-preserving reductions of the paper's (STREAM N=2^18 instead of
// 2^25, offset step 2 instead of 1): every congruence mod 512 bytes, every
// cache-pressure ratio and every chunk-geometry property is identical, and
// a complete regeneration of all five figures takes minutes instead of
// hours.
func Default() Options {
	return Options{
		Cfg:          machine.MustGet(machine.DefaultName).Config,
		StreamN:      1 << 18,
		OffsetMax:    256,
		OffsetStep:   2,
		Fig2Threads:  []int{8, 16, 32, 64},
		StreamSweeps: 1,

		TriadN:    1 << 19,
		TriadLen:  128,
		TriadStep: 2,

		Fig5Ns: []int64{128, 512, 2048, 8192, 1 << 15, 1 << 17, 1 << 19, 1 << 21},

		JacobiNs:      []int64{200, 400, 600, 800, 1000, 1200, 1216, 1280, 1600, 2000},
		JacobiThreads: []int{8, 16, 32, 64},
		JacobiSweeps:  1,

		LBMNs:     []int64{64, 72, 96, 126, 128, 160, 192},
		LBMSweeps: 1,

		ScalingN: 1 << 17,
	}
}

// WithProfile retargets the experiments at a machine profile: the chip
// configuration comes from the profile, and (for non-default profiles)
// the profile name is stamped into every BENCH trajectory. The default t2
// profile leaves Machine empty so historical trajectories stay
// byte-identical.
func (o Options) WithProfile(p machine.Profile) Options {
	o.Cfg = p.Config
	o.Machine = machine.Tag(p.Name)
	return o
}

// spec derives the analyzer's machine description from the configured
// chip, so planned offsets, row shifts and regime predictions follow the
// selected profile instead of a hardwired T2.
func (o Options) spec() core.MachineSpec { return core.SpecFor(o.Cfg.Mapping) }

// Small returns unit-test-scale settings that keep every structural
// property (congruences mod 512 B, cache pressure ratios).
func Small() Options {
	o := Default()
	o.StreamN = 1 << 15
	o.OffsetStep = 8
	o.Fig2Threads = []int{16, 64}
	o.TriadN = 1 << 16
	o.TriadLen = 128
	o.TriadStep = 4
	o.Fig5Ns = []int64{128, 2048, 1 << 15, 1 << 17}
	o.JacobiNs = []int64{128, 192, 256, 320}
	o.JacobiThreads = []int{8, 64}
	o.JacobiSweeps = 1
	o.LBMNs = []int64{48, 62, 64, 72}
	o.ScalingN = 1 << 15
	return o
}

func (o Options) warmLines() int64 { return o.Cfg.L2.SizeBytes / phys.LineSize }

// machineKey caches one reusable chip.Machine per configuration in a
// worker's scratch; chip.Config is comparable, so the configuration itself
// is the key.
type machineKey struct{ cfg chip.Config }

// machineFor returns the worker's reusable machine for cfg, building it on
// the worker's first point. Machines reset completely between runs, so the
// cached machine produces byte-identical results to a fresh one (pinned by
// the chip reuse tests and the jobs=1-vs-N determinism regression).
func machineFor(sc *exp.Scratch, cfg chip.Config) *chip.Machine {
	return sc.Get(machineKey{cfg}, func() any { return chip.New(cfg) }).(*chip.Machine)
}

// run is one simulated program: what it simulated, and how much engine
// work that took.
type run struct {
	chip.Result
	chip.RunStats
}

// runProg runs one program on the worker's cached machine for the point's
// configuration; every experiment closure funnels through it. The sweep's
// context (exp.Scratch.Context) rides along so a cancelled or timed-out
// sweep aborts each in-flight run cooperatively; with a background context
// this is exactly the fault-free path.
func runProg(cfg chip.Config, sc *exp.Scratch, p *trace.Program, warm int64) (run, error) {
	p.WarmLines = warm
	m := machineFor(sc, cfg)
	r, err := m.RunCtx(sc.Context(), p)
	return run{r, m.LastRun()}, err
}

// bwMetrics exposes the secondary metrics every bandwidth trajectory
// carries alongside its headline number.
func bwMetrics(r run) map[string]float64 {
	return map[string]float64{
		"gbps":        r.GBps,
		"actual_gbps": r.ActualGBps,
		"mups":        r.MUPs,
		"balance":     r.Balance(),
	}
}

// measured attaches the run's aggregate simulation telemetry (cycles, L2
// accesses, engine events and tag probes) to the point result; the telemetry never
// reaches the JSON trajectories, only the benchmark metrics.
func measured(res exp.Result, r run) exp.Result {
	res.Cycles = r.Cycles
	res.Accesses = r.L2.Hits + r.L2.Misses
	res.Events = int64(r.Events)
	res.Probes = int64(r.Probes)
	return res
}

// ---- Fig. 2: STREAM vs COMMON-block offset ---------------------------------

// Fig2Result bundles the lower (triad) and upper (copy) panels.
type Fig2Result struct {
	Triad []stats.Series // one per thread count
	Copy  stats.Series   // 64 threads
}

// Fig2Exp declares Fig. 2: STREAM triad bandwidth versus array offset for
// several thread counts, and copy bandwidth at 64 threads.
func (o Options) Fig2Exp() exp.Experiment {
	// The copy panel always runs at 64 threads, whether or not 64 is among
	// the triad thread counts.
	triadT := map[int]bool{}
	for _, t := range o.Fig2Threads {
		triadT[t] = true
	}
	threadAxis := o.Fig2Threads
	if !triadT[64] {
		threadAxis = append(append([]int{}, o.Fig2Threads...), 64)
	}
	return exp.Experiment{
		Name:    "fig2",
		Doc:     "STREAM triad/copy bandwidth vs COMMON-block offset (GB/s)",
		Machine: o.Machine,
		Cfg:     o.Cfg,
		Grid: exp.Grid{
			exp.Strs("kernel", "triad", "copy"),
			exp.Ints("threads", threadAxis...),
			exp.Span64("offset", 0, o.OffsetMax+1, o.OffsetStep),
		},
		Keep: func(p exp.Point) bool {
			if p.Str("kernel") == "copy" {
				return p.Int("threads") == 64
			}
			return triadT[p.Int("threads")]
		},
		Run: func(cfg chip.Config, p exp.Point, sc *exp.Scratch) (exp.Result, error) {
			kind := kernelTriad
			if p.Str("kernel") == "copy" {
				kind = kernelCopy
			}
			th := p.Int("threads")
			off := p.Int64("offset")
			r, err := runProg(cfg, sc, o.streamProg(sc, kind, off, th), o.warmLines())
			if err != nil {
				return exp.Result{}, err
			}
			return measured(exp.Result{
				Series:  fmt.Sprintf("%s/%dT", p.Str("kernel"), th),
				X:       float64(off),
				Y:       r.GBps,
				Metrics: bwMetrics(r),
			}, r), nil
		},
	}
}

// Fig2 regenerates Fig. 2 on the parallel engine.
func Fig2(o Options) Fig2Result {
	return Fig2FromSeries(exp.MustRun(o.Fig2Exp()).Series())
}

// Fig2FromSeries splits the flat series list back into the two panels.
func Fig2FromSeries(series []stats.Series) Fig2Result {
	var res Fig2Result
	for _, s := range series {
		if strings.HasPrefix(s.Name, "copy/") {
			res.Copy = s
		} else {
			res.Triad = append(res.Triad, s)
		}
	}
	return res
}

type streamKind int

const (
	kernelCopy streamKind = iota
	kernelTriad
)

// streamProgKey caches one recyclable program per (kernel, team) shape in
// a worker's scratch; only the stream bases change across offsets, so
// ProgramInto rebuilds the cached program in place.
type streamProgKey struct {
	kind    streamKind
	threads int
}

type progHolder struct{ p *trace.Program }

func (o Options) streamProg(sc *exp.Scratch, kind streamKind, offsetWords int64, threads int) *trace.Program {
	sp := alloc.NewSpace()
	bases := sp.Common(3, o.StreamN+offsetWords, phys.WordSize)
	var k kernels.Stream
	switch kind {
	case kernelCopy:
		k = kernels.StreamCopy(bases[2], bases[0], o.StreamN)
	case kernelTriad:
		k = kernels.StreamTriad(bases[0], bases[1], bases[2], o.StreamN)
	}
	k.Sweeps = o.StreamSweeps
	h := sc.Get(streamProgKey{kind, threads}, func() any { return &progHolder{} }).(*progHolder)
	h.p = k.ProgramInto(h.p, omp.StaticBlock{}, threads)
	return h.p
}

// ---- Fig. 4: vector triad vs N under placement policies --------------------

// segTriadLayouts places the four vector-triad arrays as segmented arrays
// with one page-aligned segment per thread (the paper's framework of
// Sect. 2.2); array i is displaced by i*offset bytes.
func segTriadLayouts(sp *alloc.Space, n int64, threads int, offset int64) [4]*segarray.Layout {
	segLens := segarray.EqualSegments(n, threads)
	var out [4]*segarray.Layout
	for i := range out {
		l := segarray.Plan(sp, segarray.Params{
			ElemSize: phys.WordSize,
			Align:    phys.PageSize,
			SegAlign: phys.PageSize,
			Offset:   int64(i) * offset,
		}, segLens)
		out[i] = &l
	}
	return out
}

// Fig4Exp declares Fig. 4: vector triad bandwidth versus array length for
// plain malloc placement, 8 kB alignment of every thread's segment, and
// the same alignment with per-array byte offsets of 32, 64 and 128 (arrays
// B, C, D shifted by one, two and three times the offset).
func (o Options) Fig4Exp() exp.Experiment {
	const threads = 64
	return exp.Experiment{
		Name:    "fig4",
		Doc:     "vector triad bandwidth vs N under placement policies (GB/s)",
		Machine: o.Machine,
		Cfg:     o.Cfg,
		Grid: exp.Grid{
			exp.Strs("placement", "plain", "seg"),
			exp.Int64s("offset", 0, 32, 64, 128),
			exp.Span64("n", o.TriadN, o.TriadN+o.TriadLen, o.TriadStep),
		},
		// Plain malloc has no per-array offset knob.
		Keep: func(p exp.Point) bool {
			return p.Str("placement") == "seg" || p.Int64("offset") == 0
		},
		Run: func(cfg chip.Config, p exp.Point, sc *exp.Scratch) (exp.Result, error) {
			n := p.Int64("n")
			off := p.Int64("offset")
			sp := alloc.NewSpace()
			var prog *trace.Program
			series := "plain"
			if p.Str("placement") == "plain" {
				bases := make([]phys.Addr, 4)
				for i := range bases {
					bases[i] = sp.Malloc(n * phys.WordSize)
				}
				// a = b + c*d: a is written, b, c, d are read.
				k := kernels.VTriad(bases[0], bases[1], bases[2], bases[3], n)
				prog = k.Program(omp.StaticBlock{}, threads)
			} else {
				ls := segTriadLayouts(sp, n, threads, off)
				k := kernels.SegVTriad(ls[0], ls[1], ls[2], ls[3])
				prog = k.Program(threads)
				series = "align8k"
				if off != 0 {
					series = fmt.Sprintf("align8k+%d", off)
				}
			}
			r, err := runProg(cfg, sc, prog, o.warmLines())
			if err != nil {
				return exp.Result{}, err
			}
			return measured(exp.Result{Series: series, X: float64(n), Y: r.GBps, Metrics: bwMetrics(r)}, r), nil
		},
	}
}

// Fig4 regenerates Fig. 4 on the parallel engine.
func Fig4(o Options) []stats.Series {
	return exp.MustRun(o.Fig4Exp()).Series()
}

// ---- Fig. 5: segmented iterators vs plain loops -----------------------------

// Fig5Exp declares Fig. 5: vector triad bandwidth versus N for the
// segmented implementation with optimal alignment (per-thread segments,
// manual floor/ceil scheduling, per-segment loop setup overhead) against
// the plain OpenMP version. Offsets are kept optimal in both arms —
// Fig. 5 isolates iterator overhead, not aliasing.
func (o Options) Fig5Exp(threads int) exp.Experiment {
	plan := core.PlanArrayOffsets(o.spec(), 4)
	return exp.Experiment{
		Name:    "fig5",
		Doc:     "segmented iterator overhead vs plain loops (GB/s)",
		Machine: o.Machine,
		Cfg:     o.Cfg,
		Grid: exp.Grid{
			exp.Strs("impl", "seg", "plain"),
			exp.Int64s("n", o.Fig5Ns...),
		},
		Run: func(cfg chip.Config, p exp.Point, sc *exp.Scratch) (exp.Result, error) {
			n := p.Int64("n")
			sp := alloc.NewSpace()
			var prog *trace.Program
			var series string
			if p.Str("impl") == "seg" {
				// Segmented: each array is a seg_array with one segment per
				// thread and planned offsets; the per-segment dispatch costs
				// extra integer work at every segment entry.
				segLens := segarray.EqualSegments(n, threads)
				var ls [4]*segarray.Layout
				for i := range ls {
					l := segarray.Plan(sp, segarray.Params{
						ElemSize: phys.WordSize,
						Align:    phys.PageSize,
						SegAlign: phys.PageSize,
						Offset:   plan.Offsets[i],
					}, segLens)
					ls[i] = &l
				}
				k := kernels.SegVTriad(ls[0], ls[1], ls[2], ls[3])
				k.SegOverhead = 30
				prog = k.Program(threads)
				series = fmt.Sprintf("%dT segmented optimal", threads)
			} else {
				bases := sp.OffsetBases(4, n*phys.WordSize, phys.PageSize, 128)
				k := kernels.VTriad(bases[0], bases[1], bases[2], bases[3], n)
				prog = k.Program(omp.StaticBlock{}, threads)
				series = fmt.Sprintf("%dT non-segmented", threads)
			}
			r, err := runProg(cfg, sc, prog, o.warmLines())
			if err != nil {
				return exp.Result{}, err
			}
			return measured(exp.Result{Series: series, X: float64(n), Y: r.GBps, Metrics: bwMetrics(r)}, r), nil
		},
	}
}

// Fig5 regenerates Fig. 5 on the parallel engine.
func Fig5(o Options, threads int) []stats.Series {
	return exp.MustRun(o.Fig5Exp(threads)).Series()
}

// ---- Fig. 6: 2D Jacobi ------------------------------------------------------

// Fig6Exp declares Fig. 6: Jacobi MLUPs/s versus problem size for the
// optimally aligned segmented solver at several thread counts, plus the
// plain (unaligned) 64-thread reference.
func (o Options) Fig6Exp() exp.Experiment {
	rp := core.PlanRows(o.spec())
	// The plain reference always runs at 64 threads, whether or not 64 is
	// among the optimized thread counts.
	optT := map[int]bool{}
	for _, t := range o.JacobiThreads {
		optT[t] = true
	}
	threadAxis := o.JacobiThreads
	if !optT[64] {
		threadAxis = append(append([]int{}, o.JacobiThreads...), 64)
	}
	return exp.Experiment{
		Name:    "fig6",
		Doc:     "2D Jacobi MLUPs/s vs N, planned vs plain placement",
		Machine: o.Machine,
		Cfg:     o.Cfg,
		Grid: exp.Grid{
			exp.Strs("placement", "plain", "opt"),
			exp.Ints("threads", threadAxis...),
			exp.Int64s("n", o.JacobiNs...),
		},
		Keep: func(p exp.Point) bool {
			if p.Str("placement") == "plain" {
				return p.Int("threads") == 64
			}
			return optT[p.Int("threads")]
		},
		Run: func(cfg chip.Config, p exp.Point, sc *exp.Scratch) (exp.Result, error) {
			n := p.Int64("n")
			th := p.Int("threads")
			sp := alloc.NewSpace()
			spec := jacobi.Spec{
				N:      n,
				Sched:  omp.StaticChunk{Size: 1},
				Sweeps: o.JacobiSweeps,
			}
			var series string
			if p.Str("placement") == "plain" {
				src := sp.Malloc(n * n * phys.WordSize)
				dst := sp.Malloc(n * n * phys.WordSize)
				spec.Src = jacobi.PlainRows(src, n)
				spec.Dst = jacobi.PlainRows(dst, n)
				series = fmt.Sprintf("%dT plain", th)
			} else {
				params := segarray.Params{
					ElemSize: phys.WordSize,
					Align:    phys.PageSize,
					SegAlign: rp.SegAlign,
					Shift:    rp.Shift,
				}
				rows := make([]int64, n)
				for i := range rows {
					rows[i] = n
				}
				srcL := segarray.Plan(sp, params, rows)
				dstL := segarray.Plan(sp, params, rows)
				spec.Src = func(i int64) phys.Addr { return srcL.Segs[i].Start }
				spec.Dst = func(i int64) phys.Addr { return dstL.Segs[i].Start }
				series = fmt.Sprintf("%dT", th)
			}
			r, err := runProg(cfg, sc, spec.Program(th), o.warmLines())
			if err != nil {
				return exp.Result{}, err
			}
			return measured(exp.Result{Series: series, X: float64(n), Y: r.MUPs, Metrics: bwMetrics(r)}, r), nil
		},
	}
}

// Fig6 regenerates Fig. 6 on the parallel engine.
func Fig6(o Options) []stats.Series {
	return exp.MustRun(o.Fig6Exp()).Series()
}

// ---- Fig. 7: lattice-Boltzmann ----------------------------------------------

// fig7Variant is one curve of Fig. 7.
type fig7Variant struct {
	name    string
	layout  lbm.Layout
	fused   bool
	threads int
}

// fig7Variants maps the Fig. 7 curve names to their layout, fusion and
// thread-count settings.
var fig7Variants = []fig7Variant{
	{"64T IJKv", lbm.IJKv, false, 64},
	{"64T IvJK", lbm.IvJK, false, 64},
	{"64T IvJK fused", lbm.IvJK, true, 64},
	{"32T IvJK fused", lbm.IvJK, true, 32},
}

// Fig7Exp declares Fig. 7: LBM MLUPs/s versus cubic domain size for the
// IJKv and IvJK layouts at 64 threads, the fused-loop IvJK variant, and
// the fused variant at 32 threads.
func (o Options) Fig7Exp() exp.Experiment {
	names := make([]string, len(fig7Variants))
	for i, v := range fig7Variants {
		names[i] = v.name
	}
	return exp.Experiment{
		Name:    "fig7",
		Doc:     "D3Q19 LBM MLUPs/s vs domain edge for layout/fusion variants",
		Machine: o.Machine,
		Cfg:     o.Cfg,
		Grid: exp.Grid{
			exp.Strs("variant", names...),
			exp.Int64s("n", o.LBMNs...),
		},
		Run: func(cfg chip.Config, p exp.Point, sc *exp.Scratch) (exp.Result, error) {
			name := p.Str("variant")
			var v *fig7Variant
			for i := range fig7Variants {
				if fig7Variants[i].name == name {
					v = &fig7Variants[i]
				}
			}
			if v == nil {
				return exp.Result{}, fmt.Errorf("unknown fig7 variant %q", name)
			}
			n := p.Int64("n")
			sp := alloc.NewSpace()
			spec := lbm.TraceSpec{
				N: n, Layout: v.layout,
				OldBase:  sp.Malloc(lbm.GridBytes(n, v.layout)),
				NewBase:  sp.Malloc(lbm.GridBytes(n, v.layout)),
				MaskBase: sp.Malloc(lbm.MaskBytes(n, v.layout)),
				Fused:    v.fused, Sched: omp.StaticBlock{}, Sweeps: o.LBMSweeps,
			}
			r, err := runProg(cfg, sc, spec.Program(v.threads), o.warmLines())
			if err != nil {
				return exp.Result{}, err
			}
			return measured(exp.Result{Series: name, X: float64(n), Y: r.MUPs, Metrics: bwMetrics(r)}, r), nil
		},
	}
}

// Fig7 regenerates Fig. 7 on the parallel engine.
func Fig7(o Options) []stats.Series {
	return exp.MustRun(o.Fig7Exp()).Series()
}
