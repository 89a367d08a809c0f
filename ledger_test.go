package repro_test

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/chip"
	"repro/internal/exp"
)

// The work ledger pins the deterministic work of the figure, ablation and
// daemon benchmarks: per op, the engine events, tag probes and gate
// counters of chip.RunStats, which must match testdata/work_ledger.txt
// exactly, and the heap allocations, which may exceed the committed count
// by at most allocSlack. Figures run at one job, so the counts do not
// depend on the host. Nothing here is timed; a change that slows each
// event but leaves every count alone is for the benchmark module's paired
// runs to find.

const ledgerPath = "testdata/work_ledger.txt"

// ledgerRow is one op's work.
type ledgerRow struct {
	name   string
	work   chip.RunStats
	allocs uint64
}

// ledgerCounters lists the exactly pinned columns in file order.
func ledgerCounters(w *chip.RunStats) []*uint64 {
	return []*uint64{&w.Events, &w.Probes, &w.GateFires, &w.Admissions, &w.Lookahead, &w.Released}
}

// ledgerColumns names the columns after the op, in file order.
var ledgerColumns = []string{"events", "probes", "gatefires", "admissions", "lookahead", "released", "allocs"}

// allocSlack is the allocation ceiling over a committed count: 2% plus 16,
// so runtime noise of a few allocations passes and one more allocation per
// sweep point or per daemon hit does not.
func allocSlack(allocs uint64) uint64 { return allocs + allocs/50 + 16 }

// ledgerMismatches compares measured rows with the committed ones and
// describes every difference: a missing or extra op, any counter that
// differs, up or down, and, if allocs is set, allocations over the slack.
func ledgerMismatches(want, got []ledgerRow, allocs bool) []string {
	var out []string
	byName := map[string]ledgerRow{}
	for _, g := range got {
		byName[g.name] = g
	}
	seen := map[string]bool{}
	for _, w := range want {
		seen[w.name] = true
		g, ok := byName[w.name]
		if !ok {
			out = append(out, fmt.Sprintf("%s: not measured", w.name))
			continue
		}
		gc, wc := ledgerCounters(&g.work), ledgerCounters(&w.work)
		for i := range gc {
			if *gc[i] != *wc[i] {
				out = append(out, fmt.Sprintf("%s: %s %d, committed %d", w.name, ledgerColumns[i], *gc[i], *wc[i]))
			}
		}
		if ceil := allocSlack(w.allocs); allocs && g.allocs > ceil {
			out = append(out, fmt.Sprintf("%s: %d allocations, over the ceiling %d (committed %d)", w.name, g.allocs, ceil, w.allocs))
		}
	}
	for _, g := range got {
		if !seen[g.name] {
			out = append(out, fmt.Sprintf("%s: not in %s", g.name, ledgerPath))
		}
	}
	return out
}

// formatLedger renders rows in the file's format.
func formatLedger(rows []ledgerRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s", "# op")
	for _, c := range ledgerColumns {
		fmt.Fprintf(&b, " %10s", c)
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s", r.name)
		for _, c := range ledgerCounters(&r.work) {
			fmt.Fprintf(&b, " %10d", *c)
		}
		fmt.Fprintf(&b, " %10d\n", r.allocs)
	}
	return b.String()
}

// parseLedger reads the committed rows; lines starting with # are
// comments.
func parseLedger(path string) ([]ledgerRow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows []ledgerRow
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fs := strings.Fields(line)
		r := ledgerRow{name: fs[0]}
		cols := append(ledgerCounters(&r.work), &r.allocs)
		if len(fs) != 1+len(ledgerColumns) {
			return nil, fmt.Errorf("%s: %q has %d columns, want %d", path, line, len(fs), 1+len(ledgerColumns))
		}
		for i, c := range cols {
			if *c, err = strconv.ParseUint(fs[1+i], 10, 64); err != nil {
				return nil, fmt.Errorf("%s: %q: %v", path, line, err)
			}
		}
		rows = append(rows, r)
	}
	return rows, sc.Err()
}

// mallocs runs f once and counts the heap allocations made meanwhile.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// measureLedger runs one op of every ledger workload, in file order.
func measureLedger(t *testing.T) []ledgerRow {
	o := bench.Small()
	figure := func(e func() exp.Experiment) func(*chip.RunStats) {
		return func(w *chip.RunStats) {
			out, err := exp.Runner{Jobs: 1}.Run(e())
			if err != nil {
				t.Fatal(err)
			}
			*w = out.Work()
		}
	}
	ablation := func(f func(*chip.RunStats) (chip.Result, chip.Result)) func(*chip.RunStats) {
		return func(w *chip.RunStats) { f(w) }
	}
	ops := []struct {
		name string
		op   func(*chip.RunStats)
	}{
		{"Fig2StreamTriadOffsets", figure(o.Fig2Exp)},
		{"Fig4VectorTriadAlignment", figure(o.Fig4Exp)},
		{"Fig5SegmentedOverhead", figure(func() exp.Experiment { return o.Fig5Exp(64) })},
		{"Fig6Jacobi", figure(o.Fig6Exp)},
		{"Fig7LBM", figure(o.Fig7Exp)},
		{"AblationXORMapping", ablation(ablationXOR)},
		{"AblationMSHR", ablation(ablationMSHR)},
		{"AblationTurnaround", ablation(ablationTurnaround)},
		{"AblationRunAhead", ablation(ablationRunAhead)},
	}
	var rows []ledgerRow
	for _, op := range ops {
		r := ledgerRow{name: op.name}
		r.allocs = mallocs(func() { op.op(&r.work) })
		rows = append(rows, r)
	}
	hits := daemonHits(t)
	return append(rows, ledgerRow{name: "DaemonHit", allocs: mallocs(hits)})
}

// TestWorkLedger measures every ledger workload and compares it with the
// committed table. On any mismatch it prints the whole measured table in
// the file's format; a change that moves the work on purpose commits that
// table and says why. Under the race detector, whose runtime allocates, it
// checks every work counter but not the allocation ceiling.
func TestWorkLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the five small figures at one job")
	}
	want, err := parseLedger(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	got := measureLedger(t)
	if raceEnabled {
		t.Log("race detector build: allocations not checked, work counters checked exactly")
	}
	if bad := ledgerMismatches(want, got, !raceEnabled); len(bad) > 0 {
		for _, m := range bad {
			t.Error(m)
		}
		t.Logf("measured:\n%s", formatLedger(got))
	}
}

// TestLedgerRule pins the comparison rule: any change in a work counter
// fails, growth or not, while allocations pass up to the slack and fail
// past it.
func TestLedgerRule(t *testing.T) {
	base := ledgerRow{name: "op", work: chip.RunStats{Events: 1000000, Probes: 2000000, GateFires: 10, Admissions: 5, Lookahead: 3, Released: 1}, allocs: 10000}
	want := []ledgerRow{base}
	check := func(what string, mutate func(*ledgerRow), fails bool) {
		t.Helper()
		g := base
		mutate(&g)
		if bad := ledgerMismatches(want, []ledgerRow{g}, true); (len(bad) > 0) != fails {
			t.Errorf("%s: mismatches %q, want failure %v", what, bad, fails)
		}
	}
	check("unchanged", func(*ledgerRow) {}, false)
	check("one more event", func(r *ledgerRow) { r.work.Events++ }, true)
	check("one fewer event", func(r *ledgerRow) { r.work.Events-- }, true)
	check("one more probe", func(r *ledgerRow) { r.work.Probes++ }, true)
	check("one more gate fire", func(r *ledgerRow) { r.work.GateFires++ }, true)
	check("one more release", func(r *ledgerRow) { r.work.Released++ }, true)
	check("allocations within the slack", func(r *ledgerRow) { r.allocs = 10216 }, false)
	check("fewer allocations", func(r *ledgerRow) { r.allocs = 9000 }, false)
	check("allocations past the slack", func(r *ledgerRow) { r.allocs = 10217 }, true)
	check("renamed op", func(r *ledgerRow) { r.name = "other" }, true)

	// Unchecked allocations: any count passes, every counter still fails.
	past, moved := base, base
	past.allocs, moved.allocs, moved.work.Events = 10217, 10217, moved.work.Events+1
	if bad := ledgerMismatches(want, []ledgerRow{past}, false); len(bad) > 0 {
		t.Errorf("allocations past the slack, unchecked: mismatches %q, want none", bad)
	}
	if bad := ledgerMismatches(want, []ledgerRow{moved}, false); len(bad) != 1 {
		t.Errorf("one more event, allocations unchecked: mismatches %q, want one", bad)
	}
}

// TestLedgerFormatRoundTrip: the table the ledger prints on a mismatch is
// a valid ledger file holding the same rows.
func TestLedgerFormatRoundTrip(t *testing.T) {
	rows := []ledgerRow{
		{name: "A", work: chip.RunStats{Events: 1, Probes: 2, GateFires: 3, Admissions: 4, Lookahead: 5, Released: 6}, allocs: 7},
		{name: "DaemonHit", allocs: 2241},
	}
	path := t.TempDir() + "/ledger.txt"
	if err := os.WriteFile(path, []byte(formatLedger(rows)), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := parseLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if bad := ledgerMismatches(rows, back, true); len(bad) > 0 || len(back) != len(rows) {
		t.Errorf("round trip: %d rows back, mismatches %q", len(back), bad)
	}
}
