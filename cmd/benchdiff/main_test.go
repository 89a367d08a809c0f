package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func bm(metrics ...map[string]float64) doc {
	d := doc{Benchmarks: map[string]map[string]float64{}}
	for i, m := range metrics {
		d.Benchmarks[[]string{"BenchmarkA", "BenchmarkB", "BenchmarkC"}[i]] = m
	}
	return d
}

// TestLoadExitCodes pins the exit-code contract for trajectory-load
// failures: a missing file is exit 3 (generate it), a corrupt or empty
// one is exit 4 (repair it), and both error messages carry the path so
// the one-line stderr report is actionable on its own.
func TestLoadExitCodes(t *testing.T) {
	dir := t.TempDir()

	missing := filepath.Join(dir, "BENCH_perf.json")
	if _, err := load(missing); err == nil {
		t.Fatal("load of a missing file succeeded")
	} else {
		if got := loadExitCode(err); got != 3 {
			t.Errorf("missing file: exit code %d, want 3", got)
		}
		if !strings.Contains(err.Error(), missing) {
			t.Errorf("missing-file error %q does not name the path", err)
		}
	}

	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte(`{"benchmarks": {`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := load(corrupt); err == nil {
		t.Fatal("load of corrupt JSON succeeded")
	} else {
		if got := loadExitCode(err); got != 4 {
			t.Errorf("corrupt file: exit code %d, want 4", got)
		}
		if !strings.Contains(err.Error(), corrupt) {
			t.Errorf("corrupt-file error %q does not name the path", err)
		}
	}

	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"benchmarks": {}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := load(empty); err == nil {
		t.Fatal("load of an empty trajectory succeeded")
	} else if got := loadExitCode(err); got != 4 {
		t.Errorf("empty trajectory: exit code %d, want 4", got)
	}

	ok := filepath.Join(dir, "ok.json")
	if err := os.WriteFile(ok, []byte(`{"benchmarks": {"BenchmarkA": {"accesses/s": 1}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := load(ok); err != nil {
		t.Fatalf("load of a valid trajectory failed: %v", err)
	}
}

func TestCompareOK(t *testing.T) {
	base := bm(map[string]float64{"accesses/s": 100, "allocs/op": 10})
	fresh := bm(map[string]float64{"accesses/s": 95, "allocs/op": 10})
	var sb strings.Builder
	if compare(base, fresh, 0.20, 0.02, &sb) {
		t.Fatalf("5%% drop within a 20%% budget failed:\n%s", sb.String())
	}
}

func TestCompareThroughputRegression(t *testing.T) {
	base := bm(map[string]float64{"accesses/s": 100})
	fresh := bm(map[string]float64{"accesses/s": 70})
	var sb strings.Builder
	if !compare(base, fresh, 0.20, 0.02, &sb) {
		t.Fatal("30% drop passed a 20% budget")
	}
	out := sb.String()
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "delta table") {
		t.Errorf("failure output missing regression marker or delta table:\n%s", out)
	}
}

func TestCompareAllocGrowthRegression(t *testing.T) {
	base := bm(map[string]float64{"allocs/op": 10000})
	fresh := bm(map[string]float64{"allocs/op": 11000})
	var sb strings.Builder
	if !compare(base, fresh, 0.20, 0.02, &sb) {
		t.Fatal("10% alloc growth passed the 2% slack")
	}
}

// TestCompareEventGrowth pins the zero-tolerance events/op gate: the count
// is deterministic, so one extra event per iteration fails, while an equal
// or smaller count passes, even when the throughput metrics wobble.
func TestCompareEventGrowth(t *testing.T) {
	base := bm(map[string]float64{"accesses/s": 100, "events/op": 1000000})
	var sb strings.Builder
	for _, ev := range []float64{1000000, 250000} {
		sb.Reset()
		fresh := bm(map[string]float64{"accesses/s": 90, "events/op": ev})
		if compare(base, fresh, 0.20, 0.02, &sb) {
			t.Fatalf("events/op %g against a baseline of 1e6 failed the gate:\n%s", ev, sb.String())
		}
	}
	sb.Reset()
	grown := bm(map[string]float64{"accesses/s": 100, "events/op": 1000001})
	if !compare(base, grown, 0.20, 0.02, &sb) {
		t.Fatal("one extra event per iteration passed the gate")
	}
	out := sb.String()
	if !strings.Contains(out, "events/op       1000000 ->      1000001 REGRESSION") || !strings.Contains(out, "delta table") {
		t.Errorf("failure output missing the events/op regression line or delta table:\n%s", out)
	}
}

// TestCompareProbeGrowth pins the probes/op gate, which works like the
// events/op one: an equal or smaller tag-probe count passes, one extra
// probe per iteration fails and shows in the delta table, and a baseline
// that predates the metric is not gated on it.
func TestCompareProbeGrowth(t *testing.T) {
	base := bm(map[string]float64{"accesses/s": 100, "events/op": 500, "probes/op": 2000000})
	var sb strings.Builder
	for _, p := range []float64{2000000, 1500000} {
		sb.Reset()
		fresh := bm(map[string]float64{"accesses/s": 90, "events/op": 500, "probes/op": p})
		if compare(base, fresh, 0.20, 0.02, &sb) {
			t.Fatalf("probes/op %g against a baseline of 2e6 failed the gate:\n%s", p, sb.String())
		}
	}
	sb.Reset()
	grown := bm(map[string]float64{"accesses/s": 100, "events/op": 500, "probes/op": 2000001})
	if !compare(base, grown, 0.20, 0.02, &sb) {
		t.Fatal("one extra probe per iteration passed the gate")
	}
	out := sb.String()
	if !strings.Contains(out, "probes/op       2000000 ->      2000001 REGRESSION") || !strings.Contains(out, "probes fresh") {
		t.Errorf("failure output missing the probes/op regression line or delta table:\n%s", out)
	}
	sb.Reset()
	old := bm(map[string]float64{"accesses/s": 100, "events/op": 500})
	if compare(old, grown, 0.20, 0.02, &sb) {
		t.Fatalf("a baseline without probes/op gated the new metric:\n%s", sb.String())
	}
}

// TestCompareToleratesOneSidedBenchmarks is the regression for the
// added/removed handling: benchmarks (and metrics) present in only one
// trajectory are reported, never gated.
func TestCompareToleratesOneSidedBenchmarks(t *testing.T) {
	base := doc{Benchmarks: map[string]map[string]float64{
		"BenchmarkShared":  {"accesses/s": 100, "old-metric": 1},
		"BenchmarkRetired": {"accesses/s": 50},
	}}
	fresh := doc{Benchmarks: map[string]map[string]float64{
		"BenchmarkShared": {"accesses/s": 100, "new-metric": 2},
		"BenchmarkNew":    {"accesses/s": 10, "allocs/op": 5},
	}}
	var sb strings.Builder
	if compare(base, fresh, 0.20, 0.02, &sb) {
		t.Fatalf("one-sided benchmarks/metrics failed the gate:\n%s", sb.String())
	}
	out := sb.String()
	for _, want := range []string{
		"added benchmarks", "+ BenchmarkNew",
		"removed benchmarks", "- BenchmarkRetired",
		`"old-metric" only in baseline`,
		`"new-metric" only in fresh run`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestCompareSpeculationInformational: baselines recorded before the
// sharded engine was removed still carry its telemetry (spec-epochs,
// spec-commit-%, rollbacks/s, epoch-width). Comparing one against a fresh
// run without those metrics must pass the gate and report each as retired,
// while the gated metrics are still compared.
func TestCompareSpeculationInformational(t *testing.T) {
	base := bm(map[string]float64{
		"accesses/s": 100, "spec-epochs": 50000, "spec-commit-%": 95, "rollbacks/s": 0, "epoch-width": 3,
	})
	fresh := bm(map[string]float64{"accesses/s": 100})
	var sb strings.Builder
	if compare(base, fresh, 0.20, 0.02, &sb) {
		t.Fatalf("retired speculation telemetry failed the gate:\n%s", sb.String())
	}
	out := sb.String()
	for _, metric := range []string{"spec-epochs", "spec-commit-%", "rollbacks/s", "epoch-width"} {
		if !strings.Contains(out, `"`+metric+`" only in baseline`) {
			t.Errorf("report missing the retired line for %q:\n%s", metric, out)
		}
	}

	slower := bm(map[string]float64{"accesses/s": 50})
	sb.Reset()
	if !compare(base, slower, 0.20, 0.02, &sb) {
		t.Fatalf("50%% throughput drop passed the gate next to retired metrics:\n%s", sb.String())
	}
}

// TestCompareAllocNoiseTolerated pins the alloc-slack behaviour: sub-2%
// wobble passes, multiplicative growth fails.
func TestCompareAllocNoiseTolerated(t *testing.T) {
	base := bm(map[string]float64{"allocs/op": 10000})
	fresh := bm(map[string]float64{"allocs/op": 10120}) // +1.2%: warmup noise
	var sb strings.Builder
	if compare(base, fresh, 0.20, 0.02, &sb) {
		t.Fatalf("1.2%% alloc wobble failed the 2%% slack:\n%s", sb.String())
	}
	blown := bm(map[string]float64{"allocs/op": 20000})
	sb.Reset()
	if !compare(base, blown, 0.20, 0.02, &sb) {
		t.Fatal("2x alloc growth passed the gate")
	}
}

// TestCompareFFCoverage: baselines recorded before fast-forward was removed
// still carry its telemetry (ff-coverage-%, ff-jumps, ff-skipped-epochs),
// and ff-coverage-% used to be gated. Comparing one against a fresh run
// without those metrics must pass the gate — even from full coverage — and
// report each as retired, while the gated metrics are still compared.
func TestCompareFFCoverage(t *testing.T) {
	base := bm(map[string]float64{
		"accesses/s": 100, "ff-coverage-%": 52, "ff-jumps": 20, "ff-skipped-epochs": 208480,
	})
	fresh := bm(map[string]float64{"accesses/s": 100})
	var sb strings.Builder
	if compare(base, fresh, 0.20, 0.02, &sb) {
		t.Fatalf("retired fast-forward telemetry failed the gate:\n%s", sb.String())
	}
	out := sb.String()
	for _, metric := range []string{"ff-coverage-%", "ff-jumps", "ff-skipped-epochs"} {
		if !strings.Contains(out, `"`+metric+`" only in baseline`) {
			t.Errorf("report missing the retired line for %q:\n%s", metric, out)
		}
	}

	slower := bm(map[string]float64{"accesses/s": 50})
	sb.Reset()
	if !compare(base, slower, 0.20, 0.02, &sb) {
		t.Fatalf("50%% throughput drop passed the gate next to retired metrics:\n%s", sb.String())
	}
}
