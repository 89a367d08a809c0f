// Package bench contains the experiment harnesses that regenerate every
// figure of the paper's evaluation (Figs. 2, 4, 5, 6, 7) on the simulated
// T2, plus shape checks that encode the paper's qualitative claims — who
// wins, by what factor, with which periodicity — as testable predicates.
//
// Every figure is a declarative exp.Experiment: a parameter grid plus a
// closure evaluating one grid point on its worker's machine. The exp
// worker pool fans the points out across GOMAXPROCS goroutines and
// reassembles them in deterministic grid order, so regenerating a figure
// with -jobs N is bit-identical to -jobs 1. Kernel is the one program
// builder for every kernel cmd/t2sim names; the figure points it can
// express are built with it. See DESIGN.md Sect. 5 for the
// scale reductions and EXPERIMENTS.md for regenerated results.
package bench

import (
	"fmt"
	"strings"

	"repro/internal/alloc"
	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/kernels"
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
func runProg(cfg chip.Config, sc *exp.Scratch, p *trace.Program) (run, error) {
	m := sc.Machine(cfg)
	r, err := m.RunCtx(sc.Context(), p)
	return run{r, m.LastRun()}, err
}

// runKernel builds k for the point's configuration and runs it as runProg
// does.
func runKernel(cfg chip.Config, sc *exp.Scratch, k Kernel) (run, error) {
	p, err := k.Program(cfg.Mapping)
	if err != nil {
		return run{}, err
	}
	return runProg(cfg, sc, p)
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
// accesses and the execution counters) to the point result; the telemetry
// never reaches the JSON trajectories, only the benchmark metrics.
func measured(res exp.Result, r run) exp.Result {
	res.Cycles = r.Cycles
	res.Accesses = r.L2.Hits + r.L2.Misses
	res.Run = r.RunStats
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
			th := p.Int("threads")
			off := p.Int64("offset")
			k := Kernel{Name: p.Str("kernel"), N: o.StreamN, Threads: th, Offset: off,
				Sweeps: o.StreamSweeps, Sched: "static"}
			r, err := runKernel(cfg, sc, k)
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

// ---- Fig. 4: vector triad vs N under placement policies --------------------

// segTriadLayouts places the four vector-triad arrays as segmented arrays
// with one page-aligned segment per thread (the paper's framework of
// Sect. 2.2); array i is displaced by offsets[i] bytes.
func segTriadLayouts(sp *alloc.Space, n int64, threads int, offsets []int64) [4]*segarray.Layout {
	segLens := segarray.EqualSegments(n, threads)
	var out [4]*segarray.Layout
	for i := range out {
		l := segarray.Plan(sp, segarray.Params{
			ElemSize: phys.WordSize,
			Align:    phys.PageSize,
			SegAlign: phys.PageSize,
			Offset:   offsets[i],
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
				ls := segTriadLayouts(sp, n, threads, []int64{0, off, 2 * off, 3 * off})
				k := kernels.SegVTriad(ls[0], ls[1], ls[2], ls[3])
				prog = k.Program(threads)
				series = "align8k"
				if off != 0 {
					series = fmt.Sprintf("align8k+%d", off)
				}
			}
			r, err := runProg(cfg, sc, prog)
			if err != nil {
				return exp.Result{}, err
			}
			return measured(exp.Result{Series: series, X: float64(n), Y: r.GBps, Metrics: bwMetrics(r)}, r), nil
		},
	}
}

// ---- Fig. 5: segmented iterators vs plain loops -----------------------------

// Fig5Exp declares Fig. 5: vector triad bandwidth versus N for the
// segmented implementation with optimal alignment (per-thread segments,
// manual floor/ceil scheduling, per-segment loop setup overhead) against
// the plain OpenMP version. Offsets are kept optimal in both arms —
// Fig. 5 isolates iterator overhead, not aliasing.
func (o Options) Fig5Exp(threads int) exp.Experiment {
	plan := core.PlanArrayOffsets(o.Cfg.Mapping, 4)
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
			var r run
			var err error
			var series string
			if p.Str("impl") == "seg" {
				// Segmented: each array is a seg_array with one segment per
				// thread and planned offsets; the per-segment dispatch costs
				// extra integer work at every segment entry.
				ls := segTriadLayouts(alloc.NewSpace(), n, threads, plan.Offsets)
				k := kernels.SegVTriad(ls[0], ls[1], ls[2], ls[3])
				k.SegOverhead = 30
				r, err = runProg(cfg, sc, k.Program(threads))
				series = fmt.Sprintf("%dT segmented optimal", threads)
			} else {
				r, err = runKernel(cfg, sc, Kernel{Name: "vtriad", N: n, Threads: threads,
					ArrayOffset: 128, Sched: "static"})
				series = fmt.Sprintf("%dT non-segmented", threads)
			}
			if err != nil {
				return exp.Result{}, err
			}
			return measured(exp.Result{Series: series, X: float64(n), Y: r.GBps, Metrics: bwMetrics(r)}, r), nil
		},
	}
}

// ---- Fig. 6: 2D Jacobi ------------------------------------------------------

// Fig6Exp declares Fig. 6: Jacobi MLUPs/s versus problem size for the
// optimally aligned segmented solver at several thread counts, plus the
// plain (unaligned) 64-thread reference.
func (o Options) Fig6Exp() exp.Experiment {
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
			planned := p.Str("placement") == "opt"
			series := fmt.Sprintf("%dT", th)
			if !planned {
				series += " plain"
			}
			r, err := runKernel(cfg, sc, Kernel{Name: "jacobi", N: n, Threads: th,
				Sweeps: o.JacobiSweeps, Sched: "static1", Planned: planned})
			if err != nil {
				return exp.Result{}, err
			}
			return measured(exp.Result{Series: series, X: float64(n), Y: r.MUPs, Metrics: bwMetrics(r)}, r), nil
		},
	}
}

// ---- Fig. 7: lattice-Boltzmann ----------------------------------------------

// fig7Variant is one curve of Fig. 7: its name and the LBM kernel it
// runs, whose domain edge and sweep count each point sets.
type fig7Variant struct {
	name string
	k    Kernel
}

var fig7Variants = []fig7Variant{
	{"64T IJKv", Kernel{Name: "lbm", Threads: 64, Sched: "static", Layout: "IJKv"}},
	{"64T IvJK", Kernel{Name: "lbm", Threads: 64, Sched: "static", Layout: "IvJK"}},
	{"64T IvJK fused", Kernel{Name: "lbm", Threads: 64, Sched: "static", Layout: "IvJK", Fused: true}},
	{"32T IvJK fused", Kernel{Name: "lbm", Threads: 32, Sched: "static", Layout: "IvJK", Fused: true}},
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
			var k Kernel
			for _, v := range fig7Variants {
				if v.name == name {
					k = v.k
				}
			}
			if k.Name == "" {
				return exp.Result{}, fmt.Errorf("unknown fig7 variant %q", name)
			}
			n := p.Int64("n")
			k.N, k.Sweeps = n, o.LBMSweeps
			r, err := runKernel(cfg, sc, k)
			if err != nil {
				return exp.Result{}, err
			}
			return measured(exp.Result{Series: name, X: float64(n), Y: r.MUPs, Metrics: bwMetrics(r)}, r), nil
		},
	}
}
