// Command t2sim runs kernels on the simulated UltraSPARC T2 with explicit
// placement parameters. Without -sweep it runs a single point and prints
// the full performance report — bandwidth, MLUPs, per-controller
// utilization and the strand time breakdown. With -sweep it becomes a
// declarative one-axis experiment on the internal/exp worker pool: the
// named parameter is swept across lo..hi and every point is simulated in
// parallel on its worker's reused machine, as figure points are, with a
// table and optionally a JSON trajectory as output.
//
// The flags map onto a bench.Kernel, the program builder the figures use,
// so a flag set that names a figure point (say -kernel jacobi -n 128
// -threads 64 -opt, a small-scale Fig. 6 point) simulates exactly that
// point.
//
// Examples:
//
//	t2sim -kernel triad -n 524288 -threads 64 -offset 0
//	t2sim -kernel triad -n 524288 -threads 64 -offset 13
//	t2sim -kernel vtriad -n 1048576 -threads 64 -arrayoffset 128
//	t2sim -kernel jacobi -n 1200 -threads 64 -opt
//	t2sim -kernel lbm -n 96 -threads 64 -layout IvJK -fused
//	t2sim -kernel triad -n 524288 -threads 64 -offset 0 -machine xor
//	t2sim -kernel vtriad -n 1048576 -threads 64 -machine mc8
//	t2sim -kernel triad -n 524288 -sweep offset=0:256:2 -jobs 8 -json -
//	t2sim -kernel vtriad -n 1048576 -sweep threads=8:64:8
//
// The -machine flag selects a machine profile from the internal/machine
// registry (t2, t2-1mc, t2-2mc, mc8, t2-wide1k, t2-wide4k, xor, single);
// placement planning (jacobi -opt) follows the selected profile's
// interleave automatically.
//
// Exit codes (see doc.go for the repo-wide conventions):
//
//	0  run or sweep completed
//	1  runtime failure: simulation error, unwritable -json output
//	2  flag misuse: unknown kernel, machine, schedule, layout or sweep
//	   axis; -offset, -arrayoffset, -opt, -layout or -fused given, or
//	   -offset or -arrayoffset swept, for a kernel that does not read it;
//	   or a numeric flag (or a -sweep range end) out of range
//	3  -timeout expired before the run or sweep finished
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/chip"
	"repro/internal/exp"
	"repro/internal/machine"
)

// params carries every knob a single simulation point needs: the kernel
// and its placement, and the strand model's ablation knobs. The sweep
// axis overrides one field per point. set names the flags given on the
// command line, so validate can refuse those the kernel would ignore.
type params struct {
	bench.Kernel
	mshr     int
	runAhead int64
	set      []string
}

// with returns p with the sweep axis set to v.
func (p params) with(axis string, v int64) params {
	switch axis {
	case "offset":
		p.Offset = v
	case "arrayoffset":
		p.ArrayOffset = v
	case "n":
		p.N = v
	case "threads":
		p.Threads = int(v)
	}
	return p
}

// config is the profile's machine with the point's strand knobs.
func (p params) config(prof machine.Profile) chip.Config {
	cfg := prof.Config
	cfg.MSHRPerStrand = p.mshr
	cfg.RunAhead = p.runAhead
	return cfg
}

// run simulates the point on the worker's machine for cfg.
func (p params) run(cfg chip.Config, sc *exp.Scratch) (chip.Result, error) {
	prog, err := p.Program(cfg.Mapping)
	if err != nil {
		return chip.Result{}, err
	}
	return sc.Machine(cfg).RunCtx(sc.Context(), prog)
}

// command is a parsed command line.
type command struct {
	params
	machine string
	sweep   string
	jobs    int
	jsonOut string
	timeout time.Duration
}

// parse defines t2sim's flags on fs and parses args with them.
func parse(fs *flag.FlagSet, args []string) (command, error) {
	var c command
	p := &c.params
	fs.StringVar(&p.Name, "kernel", "triad", "kernel: copy, scale, add, triad, vtriad, loadsum, jacobi, lbm")
	fs.Int64Var(&p.N, "n", 1<<19, "problem size (elements; grid edge for jacobi/lbm)")
	fs.IntVar(&p.Threads, "threads", 64, "software threads (1 up to the profile's hardware strands)")
	fs.Int64Var(&p.Offset, "offset", 0, "STREAM COMMON-block offset in DP words")
	fs.Int64Var(&p.ArrayOffset, "arrayoffset", 0, "per-array byte offset (array i shifted by i*offset)")
	fs.IntVar(&p.Sweeps, "sweeps", 1, "passes over the data")
	fs.StringVar(&p.Sched, "sched", "static", "schedule: static, static1, dynamic, guided")
	fs.StringVar(&c.machine, "machine", machine.DefaultName,
		"machine profile (see internal/machine, or `figures -list`): "+strings.Join(machine.Names(), ", "))
	fs.StringVar(&p.Layout, "layout", "IvJK", "LBM layout: IJKv or IvJK")
	fs.BoolVar(&p.Fused, "fused", false, "LBM: coalesce the outer loop pair")
	fs.BoolVar(&p.Planned, "opt", false, "jacobi: apply the planner's row placement (512B align, 128B shift)")
	fs.IntVar(&p.mshr, "mshr", 1, "outstanding load misses per strand (ablation)")
	fs.Int64Var(&p.runAhead, "runahead", 2, "strand run-ahead window in items; 0 = unbounded")
	fs.StringVar(&c.sweep, "sweep", "", "sweep one parameter: {offset|arrayoffset|n|threads}=lo:hi:step (hi inclusive)")
	fs.IntVar(&c.jobs, "jobs", 0, "worker goroutines for -sweep (<=0: GOMAXPROCS)")
	fs.StringVar(&c.jsonOut, "json", "", "with -sweep: write the JSON trajectory to this file ('-' for stdout)")
	fs.DurationVar(&c.timeout, "timeout", 0, "wall-clock budget for the run or sweep; on expiry the simulation aborts cooperatively and the exit code is 3 (0: no deadline)")
	err := fs.Parse(args)
	fs.Visit(func(f *flag.Flag) { p.set = append(p.set, f.Name) })
	return c, err
}

// sweepSpec is a parsed -sweep flag: axis=lo:hi:step, hi inclusive.
type sweepSpec struct {
	flag         string // as given, for error text
	axis         string
	lo, hi, step int64
}

// validate rejects, before anything runs, a flag given or an axis swept
// that the kernel does not read, and numeric flags the simulator cannot
// run. With a sweep it checks the range's low and high grid points; every
// bound in checkPoint limits one knob from one side, so the two ends bound
// the whole grid.
func validate(p params, maxThreads int, sw *sweepSpec) error {
	for _, name := range p.set {
		if err := reads(p.Name, name); err != nil {
			return fmt.Errorf("-%s: %w", name, err)
		}
	}
	if sw == nil {
		return checkPoint(p, maxThreads)
	}
	if err := reads(p.Name, sw.axis); err != nil {
		return fmt.Errorf("-sweep %s: %w", sw.flag, err)
	}
	for _, v := range []int64{sw.lo, sw.lo + (sw.hi-sw.lo)/sw.step*sw.step} {
		if err := checkPoint(p.with(sw.axis, v), maxThreads); err != nil {
			return fmt.Errorf("-sweep %s: %w", sw.flag, err)
		}
	}
	return nil
}

// readBy names the kernels that read a knob, for the knobs that not every
// kernel reads.
var readBy = map[string][]string{
	"offset":      {"copy", "scale", "add", "triad"},
	"arrayoffset": {"vtriad", "loadsum"},
	"opt":         {"jacobi"},
	"layout":      {"lbm"},
	"fused":       {"lbm"},
}

// reads refuses a knob that kernel does not read.
func reads(kernel, knob string) error {
	if ks, ok := readBy[knob]; ok && !slices.Contains(ks, kernel) {
		return fmt.Errorf("kernel %q does not read %s (only %s do)", kernel, knob, strings.Join(ks, ", "))
	}
	return nil
}

// checkPoint holds the bounds of one simulation point: -threads within
// [1, maxThreads], -n, -mshr and -sweeps at least 1, -runahead at least 0.
func checkPoint(p params, maxThreads int) error {
	switch {
	case p.Threads < 1 || p.Threads > maxThreads:
		return fmt.Errorf("-threads %d outside [1, %d], the machine's hardware strands", p.Threads, maxThreads)
	case p.N < 1:
		return fmt.Errorf("-n %d must be at least 1", p.N)
	case p.mshr < 1:
		return fmt.Errorf("-mshr %d must be at least 1", p.mshr)
	case p.runAhead < 0:
		return fmt.Errorf("-runahead %d must be at least 0", p.runAhead)
	case p.Sweeps < 1:
		return fmt.Errorf("-sweeps %d must be at least 1", p.Sweeps)
	}
	return nil
}

func main() {
	c, _ := parse(flag.CommandLine, os.Args[1:]) // flag.CommandLine exits on a parse error
	prof, err := machine.Get(c.machine)
	if err != nil {
		fail("%v", err)
	}
	var sw *sweepSpec
	if c.sweep != "" {
		if sw, err = parseSweep(c.sweep); err != nil {
			fail("%v", err)
		}
	}
	if err := validate(c.params, prof.Config.MaxThreads(), sw); err != nil {
		fail("%v", err)
	}
	cfg := c.config(prof)

	ctx := context.Background()
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}

	if sw == nil {
		runSingle(ctx, prof, cfg, c.params)
		return
	}
	runSweep(ctx, prof, cfg, c.params, sw, c.jobs, c.jsonOut)
}

// failTimeout reports a run cut short by -timeout; exit code 3 separates
// "ran out of budget" from flag misuse (2) and harness errors.
func failTimeout(err error) {
	fmt.Fprintf(os.Stderr, "t2sim: %v\n", err)
	os.Exit(3)
}

// runSingle simulates one point and prints the detailed report.
func runSingle(ctx context.Context, prof machine.Profile, cfg chip.Config, p params) {
	prog, err := p.Program(cfg.Mapping)
	if err != nil {
		fail("%v", err)
	}
	r, err := chip.New(cfg).RunCtx(ctx, prog)
	if err != nil {
		var ce *chip.CancelError
		if errors.As(err, &ce) {
			failTimeout(err)
		}
		failRun("%v", err)
	}

	fmt.Printf("machine:   %s (%s)\n", prof.Name, prof.Doc)
	fmt.Printf("program:   %s\n", r.Label)
	fmt.Printf("cycles:    %d (%.3f ms at %.1f GHz)\n", r.Cycles, r.Seconds*1e3, cfg.ClockHz/1e9)
	fmt.Printf("reported:  %8.2f GB/s\n", r.GBps)
	fmt.Printf("actual:    %8.2f GB/s (incl. RFO and writebacks)\n", r.ActualGBps)
	fmt.Printf("updates:   %8.2f MUP/s (%d units)\n", r.MUPs, r.Units)
	fmt.Printf("l2:        %.1f%% hits, %d writebacks\n", r.L2.HitRate()*100, r.L2.Writebacks)
	fmt.Printf("mc util:  ")
	var sum float64
	for _, u := range r.MCUtil {
		fmt.Printf(" %5.2f", u)
		sum += u
	}
	fmt.Printf("  (sum %.2f of %d)\n", sum, len(r.MCUtil))
	tot := float64(r.Cycles) * float64(r.Threads)
	fmt.Printf("breakdown: load %.1f%%  store %.1f%%  compute %.1f%%  retry %.1f%%\n",
		100*float64(r.LoadStall)/tot, 100*float64(r.StoreStall)/tot,
		100*float64(r.ComputeStall)/tot, 100*float64(r.RetryStall)/tot)
}

// parseSweep parses "axis=lo:hi:step" with hi inclusive.
func parseSweep(spec string) (*sweepSpec, error) {
	name, rng, ok := strings.Cut(spec, "=")
	if !ok {
		return nil, fmt.Errorf("sweep spec %q is not axis=lo:hi:step", spec)
	}
	switch name {
	case "offset", "arrayoffset", "n", "threads":
	default:
		return nil, fmt.Errorf("unknown sweep axis %q (want offset, arrayoffset, n or threads)", name)
	}
	parts := strings.Split(rng, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("sweep range %q is not lo:hi:step", rng)
	}
	vals := make([]int64, 3)
	for i, s := range parts {
		v, perr := strconv.ParseInt(s, 10, 64)
		if perr != nil {
			return nil, fmt.Errorf("sweep range %q: %v", rng, perr)
		}
		vals[i] = v
	}
	if vals[2] <= 0 || vals[1] < vals[0] {
		return nil, fmt.Errorf("sweep range %q must have hi >= lo and step > 0", rng)
	}
	return &sweepSpec{flag: spec, axis: name, lo: vals[0], hi: vals[1], step: vals[2]}, nil
}

// runSweep fans the one-axis sweep out over the worker pool and prints a
// table plus the optional JSON trajectory.
func runSweep(ctx context.Context, prof machine.Profile, cfg chip.Config, base params, sw *sweepSpec, jobs int, jsonOut string) {
	axis := sw.axis
	e := exp.Experiment{
		Name:    "t2sim/" + base.Name,
		Doc:     fmt.Sprintf("%s sweep over %s", base.Name, axis),
		Machine: machine.Tag(prof.Name),
		Cfg:     cfg,
		Grid:    exp.Grid{exp.Span64(axis, sw.lo, sw.hi+1, sw.step)},
		Run: func(cfg chip.Config, pt exp.Point, sc *exp.Scratch) (exp.Result, error) {
			v := pt.Int64(axis)
			p := base.with(axis, v)
			r, err := p.run(cfg, sc)
			if err != nil {
				return exp.Result{}, err
			}
			return exp.Result{
				Series: fmt.Sprintf("%s/%dT", p.Name, p.Threads),
				X:      float64(v),
				Y:      r.GBps,
				Metrics: map[string]float64{
					"actual_gbps": r.ActualGBps,
					"mups":        r.MUPs,
					"balance":     r.Balance(),
				},
			}, nil
		},
	}
	// Validate the point builder against the first axis value before
	// fanning out: an unknown kernel/schedule/layout is flag misuse (2),
	// not a per-point runtime failure.
	if _, err := base.with(axis, sw.lo).Program(cfg.Mapping); err != nil {
		fail("%v", err)
	}

	out, err := exp.Runner{Jobs: jobs}.RunContext(ctx, e)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			failTimeout(err)
		}
		failRun("%v", err)
	}

	fmt.Printf("%12s %12s %12s %12s %10s\n", axis, "GB/s", "actual-GB/s", "MUP/s", "balance")
	for _, pr := range out.Points {
		fmt.Printf("%12.0f %12.2f %12.2f %12.2f %10.2f\n",
			pr.Result.X, pr.Result.Y, pr.Result.Metrics["actual_gbps"],
			pr.Result.Metrics["mups"], pr.Result.Metrics["balance"])
	}

	if jsonOut != "" {
		if err := out.WriteJSON(jsonOut); err != nil {
			failRun("%v", err)
		}
	}
}

// fail reports flag misuse (exit 2); failRun a runtime failure (exit 1).
func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "t2sim: "+format+"\n", args...)
	os.Exit(2)
}

func failRun(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "t2sim: "+format+"\n", args...)
	os.Exit(1)
}
