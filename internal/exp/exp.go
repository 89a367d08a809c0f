// Package exp is the declarative parallel experiment engine behind every
// figure harness and CLI sweep: an Experiment names a parameter grid and a
// Run closure mapping one grid point to one measured Result; a Pool fans
// the points out across its workers and collects the results in
// deterministic grid order, so jobs=1 and jobs=N produce byte-identical
// output. Outcomes convert to stats.Series for the existing CSV/plot
// pipeline and marshal to canonical JSON for machine-readable trajectories
// (BENCH_*.json).
package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/chip"
	"repro/internal/stats"
)

// Axis is one named dimension of a parameter grid. Values may be int,
// int64, float64, string or bool; the typed accessors on Point convert
// between the integer kinds.
type Axis struct {
	Name   string
	Values []any
}

// Ints builds an int-valued axis.
func Ints(name string, vs ...int) Axis {
	a := Axis{Name: name}
	for _, v := range vs {
		a.Values = append(a.Values, v)
	}
	return a
}

// Int64s builds an int64-valued axis.
func Int64s(name string, vs ...int64) Axis {
	a := Axis{Name: name}
	for _, v := range vs {
		a.Values = append(a.Values, v)
	}
	return a
}

// Strs builds a string-valued axis.
func Strs(name string, vs ...string) Axis {
	a := Axis{Name: name}
	for _, v := range vs {
		a.Values = append(a.Values, v)
	}
	return a
}

// Span64 builds an int64 axis covering start, start+step, ... up to but
// not including stop.
func Span64(name string, start, stop, step int64) Axis {
	if step <= 0 {
		panic(fmt.Sprintf("exp: non-positive step %d for axis %q", step, name))
	}
	a := Axis{Name: name}
	for v := start; v < stop; v += step {
		a.Values = append(a.Values, v)
	}
	return a
}

// Grid is an ordered set of axes; its cross product is the sweep, expanded
// row-major with the first axis outermost.
type Grid []Axis

// Size returns the number of points in the full cross product.
func (g Grid) Size() int {
	n := 1
	for _, a := range g {
		n *= len(a.Values)
	}
	return n
}

// Point is one cell of an expanded grid. Index is the point's dense
// position among the kept points, which is also its position in
// Outcome.Points.
type Point struct {
	Index  int
	Params map[string]any
}

// get panics with a clear message when an axis name is missing — that is a
// harness bug, not a data condition.
func (p Point) get(name string) any {
	v, ok := p.Params[name]
	if !ok {
		panic(fmt.Sprintf("exp: point has no axis %q", name))
	}
	return v
}

// Int returns the named parameter as an int (accepting int or int64).
func (p Point) Int(name string) int {
	switch v := p.get(name).(type) {
	case int:
		return v
	case int64:
		return int(v)
	}
	panic(fmt.Sprintf("exp: axis %q is %T, not an integer", name, p.get(name)))
}

// Int64 returns the named parameter as an int64 (accepting int or int64).
func (p Point) Int64(name string) int64 {
	switch v := p.get(name).(type) {
	case int:
		return int64(v)
	case int64:
		return v
	}
	panic(fmt.Sprintf("exp: axis %q is %T, not an integer", name, p.get(name)))
}

// Str returns the named parameter as a string.
func (p Point) Str(name string) string {
	if v, ok := p.get(name).(string); ok {
		return v
	}
	panic(fmt.Sprintf("exp: axis %q is %T, not a string", name, p.get(name)))
}

// Expand returns every point of the cross product in deterministic
// row-major order (first axis outermost), keeping only points accepted by
// keep (nil keeps all). Indices are dense over the kept points.
func (g Grid) Expand(keep func(Point) bool) []Point {
	if len(g) == 0 {
		return nil
	}
	pts := make([]Point, 0, g.Size())
	idx := make([]int, len(g))
	for {
		params := make(map[string]any, len(g))
		for ai, a := range g {
			params[a.Name] = a.Values[idx[ai]]
		}
		p := Point{Index: len(pts), Params: params}
		if keep == nil || keep(p) {
			pts = append(pts, p)
		}
		// Odometer increment, last axis fastest.
		ai := len(g) - 1
		for ; ai >= 0; ai-- {
			idx[ai]++
			if idx[ai] < len(g[ai].Values) {
				break
			}
			idx[ai] = 0
		}
		if ai < 0 {
			return pts
		}
	}
}

// Result is the measurement at one grid point: a curve label, an (x, y)
// coordinate on that curve, and optional named extra metrics.
type Result struct {
	Series  string             `json:"series"`
	X       float64            `json:"x"`
	Y       float64            `json:"y"`
	Metrics map[string]float64 `json:"metrics,omitempty"`

	// Telemetry: aggregate simulation counters for the point, deliberately
	// excluded from JSON so BENCH_*.json trajectories stay byte-stable.
	// The benchmark harness divides their sweep totals by wallclock to
	// report hardware-portable throughput (simulated cycles per second,
	// simulated accesses per second).
	Cycles   int64 `json:"-"`
	Accesses int64 `json:"-"`
	// Run holds the point's execution counters (engine events, tag
	// probes, gate work): deterministic measures of the simulator's work.
	Run chip.RunStats `json:"-"`

	// FFCycles and FFJumps are always zero: every point is simulated event
	// by event. They remain only because the repository benchmark
	// (benchmark/measure.go) still reads them; drop them when that reader
	// is next changed.
	FFCycles int64 `json:"-"`
	FFJumps  int64 `json:"-"`
}

// Scratch is a per-worker reuse arena. Every point a worker evaluates
// receives the same Scratch, so the point-invariant state of a
// chip.Machine — its tag arrays, event wheel and strand pool — is built
// once per worker and configuration instead of once per point. Workers
// never share a Scratch, so it needs no locking; and a machine resets
// completely between runs, so no point's results leak into another. The
// jobs=1-vs-N determinism tests hold that bargain in place.
type Scratch struct {
	machines map[chip.Config]*chip.Machine

	// Ctx is the sweep's context, set by the pool so point closures can
	// thread cancellation into chip.Machine.RunCtx. Closures should read it
	// through Context, which never returns nil.
	Ctx context.Context
}

// Context returns the sweep's context, or context.Background for a
// Scratch built outside a pool (tests, bespoke harness loops).
func (s *Scratch) Context() context.Context {
	if s.Ctx == nil {
		return context.Background()
	}
	return s.Ctx
}

// Machine returns the worker's machine for cfg, building it on first use.
func (s *Scratch) Machine(cfg chip.Config) *chip.Machine {
	m, ok := s.machines[cfg]
	if !ok {
		if s.machines == nil {
			s.machines = map[chip.Config]*chip.Machine{}
		}
		m = chip.New(cfg)
		s.machines[cfg] = m
	}
	return m
}

// Experiment is a declarative sweep: a parameter grid, an optional keep
// predicate pruning the cross product, and a Run closure evaluating one
// point on the given machine configuration. Run must be safe to call from
// multiple goroutines (per-run state lives in the worker's Scratch or the
// call frame) and must be deterministic in the point alone.
type Experiment struct {
	Name string
	Doc  string
	// Machine names the machine profile the sweep runs on; it is stamped
	// into the outcome's JSON so BENCH trajectories record which machine
	// produced them. Empty means the default (t2) machine and is omitted
	// from the JSON, keeping historical trajectories byte-stable.
	Machine string
	Cfg     chip.Config
	Grid    Grid
	Keep    func(Point) bool
	Run     func(chip.Config, Point, *Scratch) (Result, error)
}

// Points expands the experiment's grid through its keep predicate.
func (e Experiment) Points() []Point {
	return e.Grid.Expand(e.Keep)
}

// PointResult pairs a point's parameters with its measured result.
type PointResult struct {
	Index  int            `json:"index"`
	Params map[string]any `json:"params"`
	Result Result         `json:"result"`

	// Wall is the host time the point's Run closure took, as the pool's
	// worker measured it. It is execution bookkeeping, not a result, so it
	// is left out of the JSON like Result's telemetry.
	Wall time.Duration `json:"-"`
}

// Outcome is a completed sweep in deterministic point order.
type Outcome struct {
	Experiment string        `json:"experiment"`
	Doc        string        `json:"doc,omitempty"`
	Machine    string        `json:"machine,omitempty"`
	Points     []PointResult `json:"points"`

	// Robustness telemetry, excluded from JSON like the per-point counters:
	// on a fault-free run every field is zero, so BENCH_*.json trajectories
	// stay byte-stable. PointErrors counts points that failed;
	// CancelLatencyMS is the largest observed cancel→halt latency among
	// aborted points; Cancelled marks a sweep cut short by its context, in
	// which case Points holds only the points that completed (at their
	// original indices).
	PointErrors     int64   `json:"-"`
	CancelLatencyMS float64 `json:"-"`
	Cancelled       bool    `json:"-"`
}

// Series groups the outcome's points into labelled curves, ordered by
// first appearance in grid order — exactly the series layout the bespoke
// harness loops used to build.
func (o Outcome) Series() []stats.Series {
	var out []stats.Series
	pos := map[string]int{}
	for _, pr := range o.Points {
		i, ok := pos[pr.Result.Series]
		if !ok {
			i = len(out)
			pos[pr.Result.Series] = i
			out = append(out, stats.Series{Name: pr.Result.Series})
		}
		out[i].Add(pr.Result.X, pr.Result.Y)
	}
	return out
}

// Totals sums the non-serialized telemetry over every point: simulated
// cycles and simulated line accesses. Zero for outcomes whose experiments
// do not populate telemetry.
func (o Outcome) Totals() (cycles, accesses int64) {
	for _, pr := range o.Points {
		cycles += pr.Result.Cycles
		accesses += pr.Result.Accesses
	}
	return cycles, accesses
}

// Work sums the execution counters over every point.
func (o Outcome) Work() chip.RunStats {
	var w chip.RunStats
	for _, pr := range o.Points {
		w.Add(pr.Result.Run)
	}
	return w
}

// Slowest describes the point whose Run closure took the longest host
// time: that time and the point's parameters, or "" for an outcome
// without points. The earliest point in grid order wins a tie.
func (o Outcome) Slowest() string {
	var slow *PointResult
	for i := range o.Points {
		if slow == nil || o.Points[i].Wall > slow.Wall {
			slow = &o.Points[i]
		}
	}
	if slow == nil {
		return ""
	}
	return fmt.Sprintf("%s (%s)", slow.Wall.Round(time.Microsecond), describeParams(slow.Params))
}

// JSON marshals the outcome canonically (indented, map keys sorted by
// encoding/json), so equal outcomes produce byte-identical files
// regardless of worker count.
func (o Outcome) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteJSON writes the canonical JSON trajectory to path, with "-"
// meaning stdout — the one output convention every CLI shares.
func (o Outcome) WriteJSON(path string) error {
	b, err := o.JSON()
	if err != nil {
		return err
	}
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
