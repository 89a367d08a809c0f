// Command placement is the paper's optimization recipe as a CLI: describe
// a kernel's stream structure and it prints the placement parameters
// (offsets, segment alignment, shift, schedule) plus the predicted
// controller utilization — "no trial and error required" (Sect. 2.3).
// Every subcommand accepts -machine to plan for any profile in the
// internal/machine registry; the analyzer derives periods and offsets
// from the profile's interleave, so the recipe is machine-generic.
//
// Subcommands:
//
//	placement offsets -streams 4
//	placement offsets -streams 8 -machine mc8
//	placement rows -machine t2-wide1k
//	placement explain -n 33554432 -offset 32
//	placement layout -n 128
//	placement sweep -n 33554432 -max 256 -step 2 -jobs 8 -json pred.json
//
// The sweep subcommand runs the analyzer itself as a declarative
// experiment on the internal/exp worker pool: predicted relative bandwidth
// and regime for every COMMON-block offset, no simulation involved — the
// engine is agnostic to what a point evaluates.
//
// Exit codes (see doc.go for the repo-wide conventions):
//
//	0  plan or sweep completed
//	1  runtime failure: analyzer sweep error, unwritable -json output
//	2  usage or flag misuse (unknown subcommand, machine or flag value)
//	3  -timeout expired before the sweep finished
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/lbm"
	"repro/internal/machine"
	"repro/internal/phys"
)

// machineFlag registers the shared -machine flag on a subcommand's flag
// set; resolve it after Parse.
func machineFlag(fs *flag.FlagSet) *string {
	return fs.String("machine", machine.DefaultName,
		"machine profile to plan for: "+strings.Join(machine.Names(), ", "))
}

// mappingFor resolves the profile name into the address mapping the
// analyzer plans against, exiting with the registry's error on an
// unknown name.
func mappingFor(name string) phys.Mapping {
	prof, err := machine.Get(name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "placement: %v\n", err)
		os.Exit(2)
	}
	return prof.Config.Mapping
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "offsets":
		fs := flag.NewFlagSet("offsets", flag.ExitOnError)
		streams := fs.Int("streams", 4, "concurrent streams (reads + writes) of the loop kernel")
		mn := machineFlag(fs)
		fs.Parse(os.Args[2:])
		mp := mappingFor(*mn)
		p := core.PlanArrayOffsets(mp, *streams)
		fmt.Printf("per-array byte offsets (after common alignment):\n")
		for i, o := range p.Offsets {
			fmt.Printf("  array %d: +%d bytes\n", i, o)
		}
		fmt.Printf("predicted controller concurrency: %.2f of %d\n", p.Concurrency, mp.Controllers())
	case "rows":
		fs := flag.NewFlagSet("rows", flag.ExitOnError)
		mn := machineFlag(fs)
		fs.Parse(os.Args[2:])
		mp := mappingFor(*mn)
		rp := core.PlanRows(mp)
		fmt.Printf("row-organized (stencil) placement:\n")
		fmt.Printf("  segment alignment: %d bytes (the controller interleave period)\n", rp.SegAlign)
		fmt.Printf("  per-row shift:     %d bytes (one controller step)\n", rp.Shift)
		fmt.Printf("  schedule:          %s (keeps the team's row band contiguous in the L2)\n", rp.Schedule)
	case "explain":
		fs := flag.NewFlagSet("explain", flag.ExitOnError)
		n := fs.Int64("n", 1<<25, "STREAM array length in DP words")
		off := fs.Int64("offset", 0, "COMMON-block offset in DP words")
		mn := machineFlag(fs)
		fs.Parse(os.Args[2:])
		mp := mappingFor(*mn)
		phases, regime := core.ExplainStreamOffset(mp, *n, *off)
		fmt.Printf("STREAM COMMON block, N=%d, offset=%d words:\n", *n, *off)
		for i, p := range phases {
			fmt.Printf("  array %c starts on controller %d\n", 'A'+i, p)
		}
		fmt.Printf("regime: %s\n", regime)
		switch regime {
		case "convoy":
			fmt.Println("  -> all threads hit one controller at a time; expect the bandwidth floor")
		case "partial":
			fmt.Println("  -> some controllers shared; expect an intermediate level")
		case "uniform":
			fmt.Println("  -> uniform utilization of all controllers; expect the ceiling")
		}
	case "layout":
		fs := flag.NewFlagSet("layout", flag.ExitOnError)
		n := fs.Int("n", 128, "LBM cubic domain edge")
		mn := machineFlag(fs)
		fs.Parse(os.Args[2:])
		mp := mappingFor(*mn)
		p := *n + 2
		sIJKv := int64(lbm.IJKv.VStride(p)) * phys.WordSize
		sIvJK := int64(lbm.IvJK.VStride(p)) * phys.WordSize
		fmt.Printf("D3Q19 stream strides at N=%d (padded edge %d):\n", *n, p)
		fmt.Printf("  IJKv: %d bytes -> %d controllers covered\n", sIJKv, core.PhaseSpread(mp, sIJKv, lbm.Q))
		fmt.Printf("  IvJK: %d bytes -> %d controllers covered\n", sIvJK, core.PhaseSpread(mp, sIvJK, lbm.Q))
		fmt.Printf("advised layout: %s\n", core.AdviseLayout(mp, "IJKv", sIJKv, "IvJK", sIvJK, lbm.Q))
	case "sweep":
		fs := flag.NewFlagSet("sweep", flag.ExitOnError)
		n := fs.Int64("n", 1<<25, "STREAM array length in DP words")
		max := fs.Int64("max", 256, "largest COMMON-block offset to analyze (words)")
		step := fs.Int64("step", 2, "offset step (words)")
		jobs := fs.Int("jobs", 0, "worker goroutines (<=0: GOMAXPROCS)")
		jsonOut := fs.String("json", "", "write the JSON trajectory to this file ('-' for stdout)")
		timeout := fs.Duration("timeout", 0, "wall-clock budget for the sweep; on expiry it aborts cooperatively and the exit code is 3 (0: no deadline)")
		mn := machineFlag(fs)
		fs.Parse(os.Args[2:])
		mp := mappingFor(*mn)
		if *step <= 0 || *max < 0 {
			fmt.Fprintln(os.Stderr, "placement: sweep needs -step > 0 and -max >= 0")
			os.Exit(2)
		}
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}

		e := exp.Experiment{
			Name:    "placement/offset-prediction",
			Doc:     "analyzer-predicted relative STREAM bandwidth vs COMMON-block offset",
			Machine: machine.Tag(*mn),
			Grid:    exp.Grid{exp.Span64("offset", 0, *max+1, *step)},
			Run: func(_ chip.Config, p exp.Point, _ *exp.Scratch) (exp.Result, error) {
				off := p.Int64("offset")
				ndim := *n + off
				bases := []phys.Addr{0, phys.Addr(ndim * phys.WordSize), phys.Addr(2 * ndim * phys.WordSize)}
				pred := core.PredictRelativeBandwidth(mp, core.StreamSet{Bases: bases, Stride: phys.LineSize})
				phases, _ := core.ExplainStreamOffset(mp, *n, off)
				spread := map[int]bool{}
				for _, ph := range phases {
					spread[ph] = true
				}
				return exp.Result{
					Series: "predicted",
					X:      float64(off),
					Y:      pred,
					Metrics: map[string]float64{
						"controllers_covered": float64(len(spread)),
					},
				}, nil
			},
		}
		out, err := exp.Runner{Jobs: *jobs}.RunContext(ctx, e)
		if err != nil {
			fmt.Fprintf(os.Stderr, "placement: %v\n", err)
			if errors.Is(err, context.DeadlineExceeded) {
				os.Exit(3)
			}
			os.Exit(1)
		}
		fmt.Printf("%8s %10s %12s\n", "offset", "predicted", "controllers")
		for _, pr := range out.Points {
			fmt.Printf("%8.0f %10.2f %12.0f\n",
				pr.Result.X, pr.Result.Y, pr.Result.Metrics["controllers_covered"])
		}
		if *jsonOut != "" {
			if err := out.WriteJSON(*jsonOut); err != nil {
				fmt.Fprintf(os.Stderr, "placement: %v\n", err)
				os.Exit(1)
			}
		}
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: placement {offsets|rows|explain|layout|sweep} [flags]")
	os.Exit(2)
}
