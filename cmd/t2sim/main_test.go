package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// defaults mirrors the flag defaults of main.
func defaults() params {
	return params{kernel: "triad", n: 1 << 19, threads: 64, sweeps: 1, sched: "static",
		layout: "IvJK", mshr: 1, runAhead: 2}
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
		{"one thread", func(p *params) { p.threads = 1 }, "", ""},
		{"unbounded run-ahead", func(p *params) { p.runAhead = 0 }, "", ""},
		{"zero threads", func(p *params) { p.threads = 0 }, "", "-threads 0"},
		{"too many threads", func(p *params) { p.threads = 65 }, "", "-threads 65"},
		{"negative n", func(p *params) { p.n = -5 }, "", "-n -5"},
		{"zero n", func(p *params) { p.n = 0 }, "", "-n 0"},
		{"zero mshr", func(p *params) { p.mshr = 0 }, "", "-mshr 0"},
		{"negative run-ahead", func(p *params) { p.runAhead = -1 }, "", "-runahead -1"},
		{"zero sweeps", func(p *params) { p.sweeps = 0 }, "", "-sweeps 0"},
		{"negative sweeps", func(p *params) { p.sweeps = -2 }, "", "-sweeps -2"},
		{"thread sweep in range", func(*params) {}, "threads=8:64:8", ""},
		{"thread sweep past the strands", func(*params) {}, "threads=32:128:32", "-threads 128"},
		{"thread sweep from zero", func(*params) {}, "threads=0:64:16", "-threads 0"},
		{"last grid point below hi", func(*params) {}, "threads=16:70:48", ""},
		{"n sweep from zero", func(*params) {}, "n=0:1024:256", "-n 0"},
		// The swept axis replaces the base value; the other knobs stay checked.
		{"sweep overrides bad base", func(p *params) { p.threads = 0 }, "threads=1:64:1", ""},
		{"sweep keeps other bounds", func(p *params) { p.threads = 0 }, "offset=0:64:16", "-threads 0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := defaults()
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
		"-runahead -1", "-sweeps 0", "-sweep threads=32:128:32"} {
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
