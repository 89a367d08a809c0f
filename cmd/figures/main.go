// Command figures regenerates the paper's evaluation figures (Figs. 2, 4,
// 5, 6, 7) and the controller-scaling study on a simulated machine by
// running the declarative experiments in internal/bench on the
// internal/exp worker pool. Each figure is written as CSV and as a
// machine-readable JSON trajectory (BENCH_<fig>.json), rendered as a
// plain-text plot, and validated by the shape checks that encode the
// paper's qualitative claims.
//
// Output is deterministic in the sweep alone: -jobs N only changes wall
// time, never a byte of the CSV or JSON.
//
// Usage:
//
//	figures [-fig all|2|4|5|6|7|scaling|comma-list] [-scale full|small]
//	        [-machine NAME] [-jobs N] [-timeout DUR]
//	        [-json=false] [-out DIR] [-cpuprofile FILE] [-memprofile FILE]
//	figures -list
//
// -timeout bounds the whole regeneration by wall-clock time: on expiry
// every in-flight simulation aborts cooperatively, no partial figure files
// are written, and the exit code is 3 (distinct from shape-check failures,
// which exit 1).
//
// -machine reruns the sweeps on another profile from the internal/machine
// registry; the profile name is stamped into the JSON trajectories. The
// shape checks encode claims about the default t2 machine and are skipped
// for other profiles (except the scaling study, which sweeps the machine
// axis itself). -list prints the figure and machine-profile registries
// and exits, so scenarios are discoverable without reading source.
// -cpuprofile and -memprofile write pprof profiles covering the sweeps,
// so performance claims about the simulator can be grounded in data.
//
// Exit codes (see doc.go for the repo-wide conventions):
//
//	0  figures regenerated; every selected shape check passed or was skipped
//	1  runtime failure: simulation error, unwritable output, shape-check FAIL
//	2  flag misuse: unknown figure, scale or machine
//	3  -timeout expired before the regeneration finished
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/stats"
)

func main() {
	fig := flag.String("fig", "all", "figures to regenerate: all, or a comma list of 2,4,5,6,7,scaling")
	scale := flag.String("scale", "full", "experiment scale: full or small")
	machineName := flag.String("machine", machine.DefaultName,
		"machine profile to simulate: "+strings.Join(machine.Names(), ", "))
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "worker goroutines for the sweep pool (<=0: GOMAXPROCS)")
	jsonOut := flag.Bool("json", true, "also write BENCH_<fig>.json trajectories")
	out := flag.String("out", "figures-out", "output directory for CSV/JSON files")
	list := flag.Bool("list", false, "print the figure and machine-profile registries and exit")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the whole regeneration; on expiry in-flight runs abort cooperatively and the exit code is 3 (0: no deadline)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the sweeps to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the sweeps) to this file")
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(1)
	}
	defer stopProfiles()
	// fail flushes the profiles before exiting, so a failed sweep still
	// leaves parseable profile files behind.
	fail := func(code int) {
		stopProfiles()
		os.Exit(code)
	}

	var o bench.Options
	switch *scale {
	case "full":
		o = bench.Default()
	case "small":
		o = bench.Small()
	default:
		fmt.Fprintf(os.Stderr, "figures: unknown scale %q\n", *scale)
		fail(2)
	}
	prof, err := machine.Get(*machineName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		fail(2)
	}
	o = o.WithProfile(prof)

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *list {
		printRegistries(o)
		return
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		fail(1)
	}

	figures := bench.Figures(o)
	selected := map[string]bool{}
	if *fig != "all" {
		known := map[string]bool{}
		for _, f := range figures {
			known[f.Name] = true
		}
		for _, f := range strings.Split(*fig, ",") {
			name := strings.TrimSpace(f)
			if !known[name] {
				name = "fig" + name
			}
			if !known[name] {
				fmt.Fprintf(os.Stderr, "figures: no figure matches -fig %q\n", strings.TrimSpace(f))
				fail(2)
			}
			selected[name] = true
		}
	}

	// The t2 shape checks assert claims about the paper's machine; the
	// scaling study carries its own machine axis and is checked everywhere.
	checkable := func(name string) bool {
		return o.Machine == "" || name == "scaling"
	}

	// Every selected figure goes to one pool at once, in registry order:
	// the pool starts a figure's points once the figures before it have
	// started theirs, so no worker idles at a figure boundary. Each figure
	// is written, plotted and checked in the same order as it completes.
	start := time.Now()
	pool := exp.NewPool(*jobs)
	var todo []bench.Figure
	var batches []*exp.Batch
	for _, f := range figures {
		if *fig == "all" || selected[f.Name] {
			todo = append(todo, f)
			batches = append(batches, pool.Submit(ctx, f.Exp, 0))
		}
	}
	failed := false
	for i, f := range todo {
		outcome, err := batches[i].Wait()
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %s: %v\n", f.Name, err)
			if errors.Is(err, context.DeadlineExceeded) {
				fmt.Fprintf(os.Stderr, "figures: timeout (-timeout %s) — %d of the figure's points completed before the abort\n",
					*timeout, len(outcome.Points))
				fail(3)
			}
			fail(1)
		}
		n := len(outcome.Points)
		fmt.Printf("== %s [machine %s] — %d points, %d jobs, done at %s, slowest point %s, %s ==\n",
			f.Title, prof.Name, n, min(pool.Workers(), n), time.Since(start).Round(time.Millisecond),
			outcome.Slowest(), outcome.Work())
		series := outcome.Series()

		csvPath := filepath.Join(*out, f.Name+".csv")
		if err := writeFile(csvPath, func(w *os.File) error {
			return stats.WriteCSV(w, f.XLabel, series)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			fail(1)
		}
		if *jsonOut {
			jsonPath := filepath.Join(*out, "BENCH_"+f.Name+".json")
			if err := outcome.WriteJSON(jsonPath); err != nil {
				fmt.Fprintf(os.Stderr, "figures: %s: %v\n", f.Name, err)
				fail(1)
			}
		}

		stats.Plot(os.Stdout, f.Name, series, 78, 16)
		if !checkable(f.Name) {
			fmt.Printf("SHAPE-CHECK %s: skipped (checks encode t2 claims; machine is %s; written to %s)\n\n",
				f.Name, prof.Name, csvPath)
		} else if err := f.Check(series); err != nil {
			failed = true
			fmt.Printf("SHAPE-CHECK %s: FAIL: %v\n\n", f.Name, err)
		} else {
			fmt.Printf("SHAPE-CHECK %s: ok (written to %s)\n\n", f.Name, csvPath)
		}
	}
	if failed {
		fmt.Println(strings.Repeat("-", 40))
		fmt.Println("one or more shape checks FAILED")
		fail(1)
	}
}

// printRegistries renders the discoverable scenario space: every figure
// experiment and every machine profile.
func printRegistries(o bench.Options) {
	fmt.Println("figures (-fig):")
	for _, f := range bench.Figures(o) {
		fmt.Printf("  %-8s %s\n", f.Name, f.Title)
		fmt.Printf("  %-8s   %s\n", "", f.Exp.Doc)
	}
	fmt.Println()
	fmt.Println("machine profiles (-machine):")
	for _, p := range machine.Profiles() {
		def := ""
		if p.Name == machine.DefaultName {
			def = " (default)"
		}
		fmt.Printf("  %-10s %s%s\n", p.Name, p.Doc, def)
	}
}

func writeFile(path string, fill func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return fill(f)
}

// startProfiles begins CPU profiling into cpuPath (if non-empty) and
// arranges a heap profile at memPath (if non-empty). The returned stop
// function is idempotent; call it both deferred and before any explicit
// os.Exit so a failing run still leaves parseable profiles behind.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "figures: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize final live-heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			}
		}
	}, nil
}
