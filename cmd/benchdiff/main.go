// Command benchdiff compares two BENCH_perf.json trajectories (as written
// by cmd/benchjson) and fails on performance regressions: a drop of more
// than the allowed fraction in simulated-access throughput (accesses/s),
// growth in allocs/op beyond a small slack (the committed baseline
// averages three iterations while the gate measures one, so pool and
// runtime warmup wobble the count by a few per mille; the slack absorbs
// that while still catching the closure-per-event class of regression,
// which multiplies the count), or any growth at all in events/op, the
// engine events a benchmark iteration dispatches, or in probes/op, the L2
// tag lookups it makes. Those counts are deterministic, so they need no
// noise budget: a larger count is more simulator work for the same
// sweep. It is the gate behind `make bench-diff`, wired into CI as a
// blocking step now that BENCH_perf.json carries a committed baseline.
//
// Usage:
//
//	benchdiff [-max-drop 0.20] [-max-alloc-growth 0.02]
//	          -base BENCH_perf.json -fresh BENCH_perf.fresh.json
//
// Benchmarks present in only one trajectory never fail the comparison:
// they are listed in an explicit "added"/"removed" section, so growing or
// retiring a benchmark is a reviewed diff line instead of a manual repair.
// The same applies to metrics present on only one side of a shared
// benchmark (a newly reported unit, a retired one). On failure the tool
// prints a per-benchmark delta table of every gated metric.
//
// Exit codes separate the failure classes so CI can react differently to
// each (see doc.go for the repo-wide conventions — 0/1/2 follow them; 3
// and 4 are this tool's input-availability classes, distinct so "generate
// the baseline" and "repair the baseline" are different CI reactions):
//
//	0  clean comparison, no gated regression
//	1  gated regression (throughput, allocs/op, events/op or probes/op)
//	2  flag misuse
//	3  a trajectory file is missing (run `make bench` to generate it)
//	4  a trajectory file exists but is corrupt or carries no benchmarks
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
)

type doc struct {
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
}

func load(path string) (doc, error) {
	var d doc
	b, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	if len(d.Benchmarks) == 0 {
		return d, fmt.Errorf("%s: no benchmarks", path)
	}
	return d, nil
}

// loadExitCode maps a load failure onto the CLI's exit-code contract: a
// missing trajectory file is 3 (nothing was ever generated — the fix is
// `make bench`, not a revert), anything else — unreadable, unparseable,
// or an empty benchmark table — is 4 (the file exists but is corrupt).
func loadExitCode(err error) int {
	if errors.Is(err, fs.ErrNotExist) {
		return 3
	}
	return 4
}

// row is one benchmark's gated-metric comparison, kept for the failure
// table.
type row struct {
	name       string
	accBase    float64
	accFresh   float64
	accRel     float64 // fractional change; meaningful when hasAcc
	hasAcc     bool
	allocBase  float64
	allocFresh float64
	hasAlloc   bool
	counts     [len(workCounters)]struct {
		base, fresh float64
		has         bool
	}
	failed bool
}

// workCounters are the deterministic work counts a benchmark reports; any
// growth in one fails the gate.
var workCounters = [...]string{"events/op", "probes/op"}

// allocSlack is the absolute allocation-count slack added on top of the
// fractional budget, so tiny benchmarks are not gated on single-digit
// runtime noise.
const allocSlack = 16

// compare runs the gate and writes the report to w, returning whether any
// regression crossed the thresholds.
func compare(bd, fd doc, maxDrop, maxAllocGrowth float64, w io.Writer) bool {
	names := make([]string, 0, len(bd.Benchmarks))
	for n := range bd.Benchmarks {
		if fd.Benchmarks[n] != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	failed := false
	rows := make([]row, 0, len(names))
	for _, n := range names {
		b, f := bd.Benchmarks[n], fd.Benchmarks[n]
		r := row{name: n}
		if ba, ok := b["accesses/s"]; ok && ba > 0 {
			if fa, ok := f["accesses/s"]; ok {
				r.hasAcc = true
				r.accBase, r.accFresh = ba, fa
				r.accRel = fa/ba - 1
				status := "ok"
				if r.accRel < -maxDrop {
					status = "REGRESSION"
					failed = true
					r.failed = true
				}
				fmt.Fprintf(w, "%-40s accesses/s %12.0f -> %12.0f (%+6.1f%%) %s\n", n, ba, fa, r.accRel*100, status)
			}
		}
		if balloc, ok := b["allocs/op"]; ok {
			if falloc, ok := f["allocs/op"]; ok {
				r.hasAlloc = true
				r.allocBase, r.allocFresh = balloc, falloc
				status := "ok"
				if falloc > balloc*(1+maxAllocGrowth)+allocSlack {
					status = "REGRESSION"
					failed = true
					r.failed = true
				}
				fmt.Fprintf(w, "%-40s allocs/op  %12.0f -> %12.0f %s\n", n, balloc, falloc, status)
			}
		}
		for i, c := range workCounters {
			bc, ok := b[c]
			if !ok {
				continue
			}
			fc, ok := f[c]
			if !ok {
				continue
			}
			r.counts[i].has = true
			r.counts[i].base, r.counts[i].fresh = bc, fc
			status := "ok"
			if fc > bc {
				status = "REGRESSION"
				failed = true
				r.failed = true
			}
			fmt.Fprintf(w, "%-40s %-10s %12.0f -> %12.0f %s\n", n, c, bc, fc, status)
		}
		// One-sided metrics within a shared benchmark are informational:
		// they appear when a benchmark starts (or stops) reporting a unit.
		for _, mn := range oneSided(b, f) {
			fmt.Fprintf(w, "%-40s metric %q only in baseline (retired?)\n", n, mn)
		}
		for _, mn := range oneSided(f, b) {
			fmt.Fprintf(w, "%-40s metric %q only in fresh run (added)\n", n, mn)
		}
		rows = append(rows, r)
	}

	// Benchmarks on one side only: an explicit, sorted added/removed
	// report. Neither direction is a failure.
	if added := missingFrom(fd, bd); len(added) > 0 {
		fmt.Fprintf(w, "added benchmarks (no baseline yet; not gated):\n")
		for _, n := range added {
			fmt.Fprintf(w, "  + %s\n", n)
		}
	}
	if removed := missingFrom(bd, fd); len(removed) > 0 {
		fmt.Fprintf(w, "removed benchmarks (in baseline, not in fresh run; not gated):\n")
		for _, n := range removed {
			fmt.Fprintf(w, "  - %s\n", n)
		}
	}

	if failed {
		fmt.Fprintf(w, "\nper-benchmark delta table (FAIL marks the gated regressions):\n")
		fmt.Fprintf(w, "%-40s %14s %14s %8s %12s %12s %12s %12s %12s %12s %s\n",
			"benchmark", "acc/s base", "acc/s fresh", "delta", "allocs base", "allocs fresh",
			"events base", "events fresh", "probes base", "probes fresh", "verdict")
		for _, r := range rows {
			acc := [3]string{"-", "-", "-"}
			if r.hasAcc {
				acc = [3]string{
					fmt.Sprintf("%.0f", r.accBase),
					fmt.Sprintf("%.0f", r.accFresh),
					fmt.Sprintf("%+.1f%%", r.accRel*100),
				}
			}
			al := [2]string{"-", "-"}
			if r.hasAlloc {
				al = [2]string{fmt.Sprintf("%.0f", r.allocBase), fmt.Sprintf("%.0f", r.allocFresh)}
			}
			var cs [2 * len(workCounters)]string
			for i, c := range r.counts {
				cs[2*i], cs[2*i+1] = "-", "-"
				if c.has {
					cs[2*i], cs[2*i+1] = fmt.Sprintf("%.0f", c.base), fmt.Sprintf("%.0f", c.fresh)
				}
			}
			verdict := "ok"
			if r.failed {
				verdict = "FAIL"
			}
			fmt.Fprintf(w, "%-40s %14s %14s %8s %12s %12s %12s %12s %12s %12s %s\n",
				r.name, acc[0], acc[1], acc[2], al[0], al[1], cs[0], cs[1], cs[2], cs[3], verdict)
		}
	}
	return failed
}

// oneSided returns the sorted metric names present in a but not in b.
func oneSided(a, b map[string]float64) []string {
	var out []string
	for mn := range a {
		if _, ok := b[mn]; !ok {
			out = append(out, mn)
		}
	}
	sort.Strings(out)
	return out
}

// missingFrom returns the sorted benchmark names in have that only do not
// appear in ref.
func missingFrom(have, ref doc) []string {
	var out []string
	for n := range have.Benchmarks {
		if _, ok := ref.Benchmarks[n]; !ok {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

func main() {
	base := flag.String("base", "BENCH_perf.json", "committed baseline trajectory")
	fresh := flag.String("fresh", "BENCH_perf.fresh.json", "freshly measured trajectory")
	maxDrop := flag.Float64("max-drop", 0.20, "maximum tolerated fractional drop in accesses/s")
	maxAllocGrowth := flag.Float64("max-alloc-growth", 0.02, "maximum tolerated fractional growth in allocs/op (plus a small absolute slack)")
	flag.Parse()

	bd, err := load(*base)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(loadExitCode(err))
	}
	fd, err := load(*fresh)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(loadExitCode(err))
	}

	if compare(bd, fd, *maxDrop, *maxAllocGrowth, os.Stdout) {
		fmt.Println("benchdiff: FAIL — accesses/s dropped beyond the threshold, allocs/op grew beyond the slack, or events/op or probes/op grew")
		os.Exit(1)
	}
	fmt.Println("benchdiff: ok")
}
