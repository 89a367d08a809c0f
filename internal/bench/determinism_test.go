package bench

import (
	"bytes"
	"testing"

	"repro/internal/exp"
	"repro/internal/machine"
)

// tiny shrinks the sweeps far below Small() — determinism does not need
// figure-shaped data, just enough points to keep a pool of workers busy.
func tiny() Options {
	o := Small()
	o.StreamN = 1 << 12
	o.OffsetStep = 32
	o.Fig5Ns = []int64{128, 2048, 1 << 14}
	return o
}

// profileTestOptions returns figure options small enough that every
// registered profile can run fig2 and fig4 several times under the race
// detector, while still driving every structural mechanism (offsets
// spanning the interleave period, 16-thread teams, warm L2, NACK convoys).
func profileTestOptions(p machine.Profile) Options {
	o := Small().WithProfile(p)
	o.StreamN = 1 << 11
	o.OffsetMax = 64
	o.OffsetStep = 32
	o.Fig2Threads = []int{16}
	o.StreamSweeps = 1
	o.TriadN = 1 << 11
	o.TriadLen = 8
	o.TriadStep = 4
	return o
}

// figJSON runs one figure experiment on a pool of jobs workers and returns
// its canonical JSON.
func figJSON(t *testing.T, o Options, fig string, jobs int) []byte {
	t.Helper()
	e := o.Fig2Exp()
	if fig == "fig4" {
		e = o.Fig4Exp()
	}
	out, err := exp.Runner{Jobs: jobs}.Run(e)
	if err != nil {
		t.Fatalf("%s: %v", fig, err)
	}
	b, err := out.JSON()
	if err != nil {
		t.Fatalf("%s: %v", fig, err)
	}
	return b
}

// TestShardDeterminismAcrossProfiles extends the jobs-invariance gate to
// every registered machine profile: fig2 and fig4 with their points split
// across 2 and 3 pool workers (3 splits them unevenly) must produce the
// canonical BENCH JSON of a single worker byte for byte — every point's
// series, coordinates and metric maps.
func TestShardDeterminismAcrossProfiles(t *testing.T) {
	for _, prof := range machine.Profiles() {
		t.Run(prof.Name, func(t *testing.T) {
			o := profileTestOptions(prof)
			for _, fig := range []string{"fig2", "fig4"} {
				ref := figJSON(t, o, fig, 1)
				for _, jobs := range []int{2, 3} {
					if got := figJSON(t, o, fig, jobs); !bytes.Equal(got, ref) {
						t.Errorf("%s: jobs=%d JSON differs from jobs=1 (%d vs %d bytes)", fig, jobs, len(got), len(ref))
					}
				}
			}
		})
	}
}

// TestFigureJSONDeterminism is the end-to-end determinism regression for
// the parallel engine: running the same figure experiment with jobs=1 and
// jobs=8 must produce byte-identical JSON trajectories. The simulator's
// event heap breaks timestamp ties by sequence number, so each point is
// deterministic in isolation; this test pins the executor's obligation to
// preserve that guarantee across the fan-out/collect path.
func TestFigureJSONDeterminism(t *testing.T) {
	o := tiny()
	for _, e := range []exp.Experiment{o.Fig2Exp(), o.Fig5Exp(64)} {
		one, err := exp.Runner{Jobs: 1}.Run(e)
		if err != nil {
			t.Fatalf("%s jobs=1: %v", e.Name, err)
		}
		many, err := exp.Runner{Jobs: 8}.Run(e)
		if err != nil {
			t.Fatalf("%s jobs=8: %v", e.Name, err)
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
			t.Errorf("%s: jobs=1 and jobs=8 JSON differ (%d vs %d bytes)", e.Name, len(b1), len(bN))
		}
	}
}
