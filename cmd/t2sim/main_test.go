package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/chip"
	"repro/internal/exp"
	"repro/internal/machine"
)

// defaults returns the flag defaults of main.
func defaults(t *testing.T) params {
	c, err := parse(flag.NewFlagSet("t2sim", flag.ContinueOnError), nil)
	if err != nil {
		t.Fatal(err)
	}
	return c.params
}

// TestValidate pins the numeric flag bounds: each bad value is rejected
// with an error naming its flag, and a -sweep range is rejected when
// either end of its grid is out of bounds.
func TestValidate(t *testing.T) {
	cases := []struct {
		name  string
		edit  func(*params)
		sweep string
		want  string // substring of the error; "" means valid
	}{
		{"defaults", func(*params) {}, "", ""},
		{"one thread", func(p *params) { p.Threads = 1 }, "", ""},
		{"unbounded run-ahead", func(p *params) { p.runAhead = 0 }, "", ""},
		{"zero threads", func(p *params) { p.Threads = 0 }, "", "-threads 0"},
		{"too many threads", func(p *params) { p.Threads = 65 }, "", "-threads 65"},
		{"negative n", func(p *params) { p.N = -5 }, "", "-n -5"},
		{"zero n", func(p *params) { p.N = 0 }, "", "-n 0"},
		{"zero mshr", func(p *params) { p.mshr = 0 }, "", "-mshr 0"},
		{"negative run-ahead", func(p *params) { p.runAhead = -1 }, "", "-runahead -1"},
		{"zero sweeps", func(p *params) { p.Sweeps = 0 }, "", "-sweeps 0"},
		{"negative sweeps", func(p *params) { p.Sweeps = -2 }, "", "-sweeps -2"},
		{"thread sweep in range", func(*params) {}, "threads=8:64:8", ""},
		{"thread sweep past the strands", func(*params) {}, "threads=32:128:32", "-threads 128"},
		{"thread sweep from zero", func(*params) {}, "threads=0:64:16", "-threads 0"},
		{"last grid point below hi", func(*params) {}, "threads=16:70:48", ""},
		{"n sweep from zero", func(*params) {}, "n=0:1024:256", "-n 0"},
		// The swept axis replaces the base value; the other knobs stay checked.
		{"sweep overrides bad base", func(p *params) { p.Threads = 0 }, "threads=1:64:1", ""},
		{"sweep keeps other bounds", func(p *params) { p.Threads = 0 }, "offset=0:64:16", "-threads 0"},
		// An axis only some kernels read may be swept only for those.
		{"offset sweep of copy", func(p *params) { p.Name = "copy" }, "offset=0:64:32", ""},
		{"offset sweep of vtriad", func(p *params) { p.Name = "vtriad" }, "offset=0:64:32", "does not read offset"},
		{"offset sweep of jacobi", func(p *params) { p.Name = "jacobi" }, "offset=0:64:32", "does not read offset"},
		{"arrayoffset sweep of loadsum", func(p *params) { p.Name = "loadsum" }, "arrayoffset=0:128:64", ""},
		{"arrayoffset sweep of lbm", func(p *params) { p.Name = "lbm" }, "arrayoffset=0:128:64", "does not read arrayoffset"},
		{"arrayoffset sweep of triad", func(*params) {}, "arrayoffset=0:128:64", "does not read arrayoffset"},
		{"n sweep of lbm", func(p *params) { p.Name = "lbm" }, "n=16:32:16", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := defaults(t)
			c.edit(&p)
			var sw *sweepSpec
			if c.sweep != "" {
				var err error
				if sw, err = parseSweep(c.sweep); err != nil {
					t.Fatal(err)
				}
			}
			err := validate(p, 64, sw)
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
				t.Fatalf("error %v, want one naming %q", err, c.want)
			}
		})
	}
}

// TestBadFlagsExitTwo runs the command itself on out-of-range flags: each
// must exit 2 with one "t2sim:" line on stderr and no stack trace, before
// simulating anything.
func TestBadFlagsExitTwo(t *testing.T) {
	if os.Getenv("T2SIM_RUN_MAIN") == "1" {
		os.Args = append([]string{"t2sim"}, strings.Fields(os.Getenv("T2SIM_ARGS"))...)
		main()
		return
	}
	for _, args := range []string{"-threads 0", "-threads 65", "-n -5", "-mshr 0",
		"-runahead -1", "-sweeps 0", "-sweep threads=32:128:32",
		"-kernel vtriad -sweep offset=0:64:32", "-kernel lbm -sweep arrayoffset=0:128:64"} {
		cmd := exec.Command(os.Args[0], "-test.run", "^TestBadFlagsExitTwo$")
		cmd.Env = append(os.Environ(), "T2SIM_RUN_MAIN=1", "T2SIM_ARGS="+args)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("t2sim %s: %v, want exit 2", args, err)
		}
		if out := stderr.String(); !strings.HasPrefix(out, "t2sim: ") || strings.Count(out, "\n") != 1 {
			t.Errorf("t2sim %s: stderr %q, want one t2sim: line", args, out)
		}
	}
}

// TestMatchesFigurePoints runs flag sets that name small-scale figure
// points through t2sim's own flag parsing and program builder, and
// requires bit-equal cycles, L2 accesses and plotted value against the
// same point run through its figure's experiment closure.
func TestMatchesFigurePoints(t *testing.T) {
	o := bench.Small()
	gbps := func(r chip.Result) float64 { return r.GBps }
	mups := func(r chip.Result) float64 { return r.MUPs }
	cases := []struct {
		args  string
		fig   exp.Experiment
		point map[string]any
		y     func(chip.Result) float64
	}{
		{"-kernel triad -n 32768 -threads 64 -offset 8", o.Fig2Exp(),
			map[string]any{"kernel": "triad", "threads": 64, "offset": 8}, gbps},
		{"-kernel copy -n 32768 -threads 64 -offset 32", o.Fig2Exp(),
			map[string]any{"kernel": "copy", "threads": 64, "offset": 32}, gbps},
		{"-kernel vtriad -n 2048 -threads 64 -arrayoffset 128", o.Fig5Exp(64),
			map[string]any{"impl": "plain", "n": 2048}, gbps},
		{"-kernel jacobi -n 128 -threads 64 -opt", o.Fig6Exp(),
			map[string]any{"placement": "opt", "threads": 64, "n": 128}, mups},
		{"-kernel jacobi -n 192 -threads 64 -sched static1", o.Fig6Exp(),
			map[string]any{"placement": "plain", "threads": 64, "n": 192}, mups},
		{"-kernel lbm -n 48 -threads 64 -layout IJKv", o.Fig7Exp(),
			map[string]any{"variant": "64T IJKv", "n": 48}, mups},
		{"-kernel lbm -n 62 -threads 32 -layout IvJK -fused", o.Fig7Exp(),
			map[string]any{"variant": "32T IvJK fused", "n": 62}, mups},
	}
	for _, c := range cases {
		t.Run(c.args, func(t *testing.T) {
			cmd, err := parse(flag.NewFlagSet("t2sim", flag.ContinueOnError), strings.Fields(c.args))
			if err != nil {
				t.Fatal(err)
			}
			prof := machine.MustGet(cmd.machine)
			if err := validate(cmd.params, prof.Config.MaxThreads(), nil); err != nil {
				t.Fatal(err)
			}
			cfg := cmd.config(prof)
			if cfg != c.fig.Cfg {
				t.Fatalf("t2sim runs on %+v, %s on %+v", cfg, c.fig.Name, c.fig.Cfg)
			}
			got, err := cmd.run(cfg, &exp.Scratch{})
			if err != nil {
				t.Fatal(err)
			}
			pt := figurePoint(t, c.fig, c.point)
			want, err := c.fig.Run(c.fig.Cfg, pt, &exp.Scratch{})
			if err != nil {
				t.Fatal(err)
			}
			if acc := got.L2.Hits + got.L2.Misses; got.Cycles != want.Cycles || acc != want.Accesses {
				t.Errorf("%d cycles, %d L2 accesses; %s point: %d, %d", got.Cycles, acc, c.fig.Name, want.Cycles, want.Accesses)
			}
			if y := c.y(got); math.Float64bits(y) != math.Float64bits(want.Y) {
				t.Errorf("y %v; %s point: %v", y, c.fig.Name, want.Y)
			}
		})
	}
}

// figurePoint returns the point of e whose parameters print as those of
// want.
func figurePoint(t *testing.T, e exp.Experiment, want map[string]any) exp.Point {
	t.Helper()
	for _, p := range e.Points() {
		match := true
		for k, v := range want {
			match = match && fmt.Sprint(p.Params[k]) == fmt.Sprint(v)
		}
		if match {
			return p
		}
	}
	t.Fatalf("%s has no point %v", e.Name, want)
	return exp.Point{}
}
