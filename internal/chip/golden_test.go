package chip_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/alloc"
	"repro/internal/chip"
	"repro/internal/jacobi"
	"repro/internal/kernels"
	"repro/internal/lbm"
	"repro/internal/machine"
	"repro/internal/omp"
	"repro/internal/phys"
	"repro/internal/segarray"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/results.golden.json from the current simulator")

const goldenPath = "testdata/results.golden.json"

// goldenProgs builds the small programs the golden table pins. Each call
// returns fresh generators; off is the per-array displacement in words.
var goldenProgs = []struct {
	name  string
	build func(threads int, off int64) *trace.Program
}{
	{"triad", func(threads int, off int64) *trace.Program {
		const n = 1 << 13
		b := alloc.NewSpace().Common(3, n+off, phys.WordSize)
		k := kernels.StreamTriad(b[0], b[1], b[2], n)
		return k.Program(omp.StaticBlock{}, threads)
	}},
	{"copy", func(threads int, off int64) *trace.Program {
		const n = 1 << 13
		b := alloc.NewSpace().Common(2, n+off, phys.WordSize)
		k := kernels.StreamCopy(b[0], b[1], n)
		return k.Program(omp.StaticBlock{}, threads)
	}},
	{"segtriad", func(threads int, off int64) *trace.Program {
		const n = 1 << 13
		sp := alloc.NewSpace()
		segLens := segarray.EqualSegments(n, threads)
		var ls [3]*segarray.Layout
		for i := range ls {
			l := segarray.Plan(sp, segarray.Params{
				ElemSize: phys.WordSize,
				Align:    phys.PageSize,
				SegAlign: phys.PageSize,
				Offset:   int64(i) * off * phys.WordSize,
			}, segLens)
			ls[i] = &l
		}
		k := kernels.SegTriad(ls[0], ls[1], ls[2])
		return k.Program(threads)
	}},
	{"jacobi2d", func(threads int, off int64) *trace.Program {
		const n = 66
		b := alloc.NewSpace().Common(2, n*n+off, phys.WordSize)
		spec := jacobi.Spec{N: n, Src: jacobi.PlainRows(b[0], n), Dst: jacobi.PlainRows(b[1], n),
			Sched: omp.StaticChunk{Size: 1}, Sweeps: 2}
		return spec.Program(threads)
	}},
	{"lbm-ijkv", func(threads int, off int64) *trace.Program {
		return lbmProg(lbm.IJKv, false, threads, off)
	}},
	{"lbm-ivjk-fused", func(threads int, off int64) *trace.Program {
		return lbmProg(lbm.IvJK, true, threads, off)
	}},
}

func lbmProg(layout lbm.Layout, fused bool, threads int, off int64) *trace.Program {
	const n = 8
	sp := alloc.NewSpace()
	spec := lbm.TraceSpec{N: n, Layout: layout, Fused: fused, Sched: omp.StaticBlock{}, Sweeps: 1}
	spec.OldBase = sp.Malloc(lbm.GridBytes(n, layout) + off*phys.WordSize)
	spec.NewBase = sp.Malloc(lbm.GridBytes(n, layout) + off*phys.WordSize)
	spec.MaskBase = sp.Malloc(lbm.MaskBytes(n, layout))
	return spec.Program(threads)
}

// goldenResults runs every golden case and returns its full Result keyed by
// case name: each program on every registered profile at 16 and 64 threads
// and word offsets 0 and 32, plus the t2 profile with four MSHRs per strand
// and with the run-ahead window removed.
func goldenResults() map[string]chip.Result {
	type machineCase struct {
		name string
		cfg  chip.Config
	}
	var machines []machineCase
	for _, p := range machine.Profiles() {
		machines = append(machines, machineCase{p.Name, p.Config})
	}
	t2 := machine.MustGet("t2").Config
	mshr := t2
	mshr.MSHRPerStrand = 4
	noRA := t2
	noRA.RunAhead = 0
	machines = append(machines, machineCase{"t2+mshr4", mshr}, machineCase{"t2+runahead0", noRA})

	out := map[string]chip.Result{}
	for _, mc := range machines {
		m := chip.New(mc.cfg)
		for _, pg := range goldenProgs {
			for _, threads := range []int{16, 64} {
				for _, off := range []int64{0, 32} {
					p := pg.build(threads, off)
					out[fmt.Sprintf("%s/%s/%dT/off%d", pg.name, mc.name, threads, off)] = m.Run(p)
				}
			}
		}
	}
	return out
}

// encodeGolden writes one case per line, sorted by name, so a diff of the
// table names the cases that moved.
func encodeGolden(res map[string]chip.Result) ([]byte, error) {
	names := make([]string, 0, len(res))
	for k := range res {
		names = append(names, k)
	}
	sort.Strings(names)
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for i, k := range names {
		key, _ := json.Marshal(k)
		val, err := json.Marshal(res[k])
		if err != nil {
			return nil, err
		}
		sep := ","
		if i == len(names)-1 {
			sep = ""
		}
		fmt.Fprintf(&buf, "%s: %s%s\n", key, val, sep)
	}
	buf.WriteString("}\n")
	return buf.Bytes(), nil
}

// TestResultGolden pins every field of chip.Result — bandwidths, cycle
// counts, L2 and per-controller counters, FPU busy time and the full stall
// and retry breakdown — for small STREAM, segmented-triad, Jacobi and LBM
// programs across all machine profiles. The BENCH_*.json hashes cover only
// the plotted metrics; this table catches a change to any counter. Rewrite
// it with -update-golden only for an intended change of the model.
func TestResultGolden(t *testing.T) {
	got, err := encodeGolden(goldenResults())
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with go test -run TestResultGolden -update-golden)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines := bytes.Split(got, []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden table has %d lines, run produced %d", len(wantLines), len(gotLines))
	}
	bad := 0
	for i := range gotLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			if bad++; bad <= 5 {
				t.Errorf("mismatch:\n got  %s\n want %s", gotLines[i], wantLines[i])
			}
		}
	}
	t.Errorf("%d of %d cases differ from %s", bad, len(gotLines)-3, goldenPath)
}
