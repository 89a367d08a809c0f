package exp

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/chip"
)

// TestGridExpansion verifies row-major expansion order, the keep
// predicate, and dense reindexing of kept points.
func TestGridExpansion(t *testing.T) {
	g := Grid{
		Strs("kind", "a", "b"),
		Ints("n", 1, 2, 3),
	}
	if got := g.Size(); got != 6 {
		t.Fatalf("Size = %d, want 6", got)
	}
	pts := g.Expand(nil)
	if len(pts) != 6 {
		t.Fatalf("Expand kept %d points, want 6", len(pts))
	}
	want := []string{"a/1", "a/2", "a/3", "b/1", "b/2", "b/3"}
	for i, p := range pts {
		got := fmt.Sprintf("%s/%d", p.Str("kind"), p.Int("n"))
		if got != want[i] {
			t.Errorf("point %d = %s, want %s", i, got, want[i])
		}
		if p.Index != i {
			t.Errorf("point %d has Index %d", i, p.Index)
		}
	}

	kept := g.Expand(func(p Point) bool { return p.Str("kind") == "b" || p.Int("n") == 2 })
	var got []string
	for i, p := range kept {
		if p.Index != i {
			t.Errorf("kept point %d has Index %d, want dense", i, p.Index)
		}
		got = append(got, fmt.Sprintf("%s/%d", p.Str("kind"), p.Int("n")))
	}
	if want := "a/2 b/1 b/2 b/3"; strings.Join(got, " ") != want {
		t.Errorf("kept points %v, want %s", got, want)
	}
}

// TestSpan64 verifies the exclusive-stop span constructor.
func TestSpan64(t *testing.T) {
	a := Span64("off", 0, 7, 2)
	if len(a.Values) != 4 {
		t.Fatalf("span has %d values, want 4 (0 2 4 6)", len(a.Values))
	}
	if a.Values[3].(int64) != 6 {
		t.Errorf("last span value = %v, want 6", a.Values[3])
	}
}

// TestPointAccessors verifies the integer conversions and the panic on a
// missing axis name.
func TestPointAccessors(t *testing.T) {
	p := Point{Params: map[string]any{"i": 7, "i64": int64(9), "s": "x"}}
	if p.Int64("i") != 7 || p.Int("i64") != 9 {
		t.Error("integer conversions broken")
	}
	defer func() {
		if recover() == nil {
			t.Error("missing axis did not panic")
		}
	}()
	p.Int("absent")
}

// synthetic builds an experiment whose result encodes the point, so
// ordering bugs in the collector are visible in the outcome.
func synthetic(fail func(Point) bool) Experiment {
	return Experiment{
		Name: "synthetic",
		Grid: Grid{
			Strs("series", "s0", "s1"),
			Ints("x", 0, 1, 2, 3, 4, 5, 6, 7),
		},
		Run: func(_ chip.Config, p Point, _ *Scratch) (Result, error) {
			if fail != nil && fail(p) {
				return Result{}, errors.New("boom")
			}
			x := p.Int("x")
			return Result{
				Series:  p.Str("series"),
				X:       float64(x),
				Y:       float64(100*len(p.Str("series")) + x),
				Metrics: map[string]float64{"x2": float64(x * x)},
			}, nil
		},
	}
}

// TestRunnerOrdering verifies that collected results sit in grid order for
// any worker count and that Series() groups them by first appearance.
func TestRunnerOrdering(t *testing.T) {
	for _, jobs := range []int{1, 3, 16} {
		out, err := Runner{Jobs: jobs}.Run(synthetic(nil))
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if len(out.Points) != 16 {
			t.Fatalf("jobs=%d: %d points, want 16", jobs, len(out.Points))
		}
		for i, pr := range out.Points {
			if pr.Index != i {
				t.Errorf("jobs=%d: point %d has index %d", jobs, i, pr.Index)
			}
			wantX := float64(i % 8)
			if pr.Result.X != wantX {
				t.Errorf("jobs=%d: point %d has x %.0f, want %.0f", jobs, i, pr.Result.X, wantX)
			}
		}
		series := out.Series()
		if len(series) != 2 || series[0].Name != "s0" || series[1].Name != "s1" {
			t.Fatalf("jobs=%d: series %v", jobs, series)
		}
		if series[0].Len() != 8 || series[0].X[7] != 7 {
			t.Errorf("jobs=%d: series s0 malformed: %v", jobs, series[0])
		}
	}
}

// TestRunnerDeterministicJSON verifies the engine-level guarantee the
// figure harnesses rely on: jobs=1 and jobs=N produce byte-identical
// canonical JSON.
func TestRunnerDeterministicJSON(t *testing.T) {
	one, err := Runner{Jobs: 1}.Run(synthetic(nil))
	if err != nil {
		t.Fatal(err)
	}
	many, err := Runner{Jobs: 8}.Run(synthetic(nil))
	if err != nil {
		t.Fatal(err)
	}
	b1, err := one.JSON()
	if err != nil {
		t.Fatal(err)
	}
	bN, err := many.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, bN) {
		t.Fatalf("jobs=1 and jobs=8 JSON differ:\n%s\n----\n%s", b1, bN)
	}
}

// TestRunnerErrorPropagation verifies that a failing point surfaces as a
// deterministic error naming the first failed point in grid order, and
// that the pool survives to evaluate the remaining points.
func TestRunnerErrorPropagation(t *testing.T) {
	e := synthetic(func(p Point) bool { return p.Str("series") == "s1" && p.Int("x")%2 == 1 })
	for _, jobs := range []int{1, 4} {
		_, err := Runner{Jobs: jobs}.Run(e)
		if err == nil {
			t.Fatalf("jobs=%d: no error", jobs)
		}
		msg := err.Error()
		if !strings.Contains(msg, "point 9") || !strings.Contains(msg, "series=s1 x=1") {
			t.Errorf("jobs=%d: error does not name first failing point: %v", jobs, err)
		}
		if !strings.Contains(msg, "4 of 16 points failed") {
			t.Errorf("jobs=%d: error does not count failures: %v", jobs, err)
		}
	}
}

// TestRunnerPanicCapture verifies a panicking closure is reported as that
// point's error instead of crashing the process.
func TestRunnerPanicCapture(t *testing.T) {
	e := synthetic(nil)
	inner := e.Run
	e.Run = func(cfg chip.Config, p Point, sc *Scratch) (Result, error) {
		if p.Int("x") == 3 {
			panic("kernel exploded")
		}
		return inner(cfg, p, sc)
	}
	_, err := Runner{Jobs: 4}.Run(e)
	if err == nil || !strings.Contains(err.Error(), "panic: kernel exploded") {
		t.Fatalf("panic not captured: %v", err)
	}
}

// TestRunnerNoRunClosure verifies the nil-closure guard.
func TestRunnerNoRunClosure(t *testing.T) {
	if _, err := (Runner{}).Run(Experiment{Name: "empty"}); err == nil {
		t.Fatal("nil Run closure accepted")
	}
}

// TestMachineStampInJSON pins the profile-stamping contract: a named
// machine appears as a "machine" field in the trajectory, and the default
// (empty) machine is omitted entirely, keeping historical BENCH_*.json
// files byte-stable.
func TestMachineStampInJSON(t *testing.T) {
	e := synthetic(nil)
	plain, err := Runner{}.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	b, err := plain.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), `"machine"`) {
		t.Error("default machine leaked a machine field into the JSON")
	}

	e.Machine = "mc8"
	stamped, err := Runner{}.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	b, err = stamped.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"machine": "mc8"`) {
		t.Error("named machine not stamped into the JSON trajectory")
	}
}
