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
	o.JacobiNs = []int64{128}
	o.JacobiThreads = []int{8}
	return o
}

// figJSON runs one figure experiment on a pool of jobs workers, with the
// fast-forward detector armed or disabled, and returns its canonical JSON
// and fast-forward coverage.
func figJSON(t *testing.T, o Options, fig string, jobs int, disableFF bool) ([]byte, int64) {
	t.Helper()
	e := o.Fig2Exp()
	switch fig {
	case "fig4":
		e = o.Fig4Exp()
	case "fig6":
		e = o.Fig6Exp()
	}
	e.Cfg.DisableFastForward = disableFF
	out, err := exp.Runner{Jobs: jobs}.Run(e)
	if err != nil {
		t.Fatalf("%s: %v", fig, err)
	}
	b, err := out.JSON()
	if err != nil {
		t.Fatalf("%s: %v", fig, err)
	}
	items, _ := out.FastForwardTotals()
	return b, items
}

// TestShardDeterminismAcrossProfiles extends the jobs-invariance gate to
// every registered machine profile: fig2 and fig4 sharded across 2 and 3
// pool workers (3 splits the points unevenly) must produce the canonical
// BENCH JSON of a single worker byte for byte — every point's series,
// coordinates and metric maps.
func TestShardDeterminismAcrossProfiles(t *testing.T) {
	for _, prof := range machine.Profiles() {
		t.Run(prof.Name, func(t *testing.T) {
			o := profileTestOptions(prof)
			for _, fig := range []string{"fig2", "fig4"} {
				ref, _ := figJSON(t, o, fig, 1, false)
				for _, jobs := range []int{2, 3} {
					if got, _ := figJSON(t, o, fig, jobs, false); !bytes.Equal(got, ref) {
						t.Errorf("%s: jobs=%d JSON differs from jobs=1 (%d vs %d bytes)", fig, jobs, len(got), len(ref))
					}
				}
			}
		})
	}
}

// TestSpeculativeJSONIdentity pins the fast-forward contract at the
// trajectory level. A jump is speculative — extrapolated from a validated
// period, then committed or rolled back — so it may only cost or save
// time: fig2, fig4 and (on the t2) fig6 BENCH JSON must be byte-identical
// with the detector armed or disabled, across structurally distinct
// profiles (1, 4 and 8 controllers, XOR interleave). The streams are
// lengthened so the detector locks onto fig2's low-contention points
// (detection plus two validation periods) and the identity is not vacuous.
func TestSpeculativeJSONIdentity(t *testing.T) {
	forwarded := false
	for _, name := range []string{"t2", "t2-1mc", "mc8", "xor"} {
		prof, err := machine.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			o := profileTestOptions(prof)
			o.StreamN = 1 << 15
			figs := []string{"fig2", "fig4"}
			if name == "t2" {
				figs = append(figs, "fig6")
			}
			for _, fig := range figs {
				full, _ := figJSON(t, o, fig, 2, true)
				ff, items := figJSON(t, o, fig, 2, false)
				if items > 0 {
					forwarded = true
				}
				if !bytes.Equal(ff, full) {
					t.Errorf("%s: fast-forwarded JSON differs from full simulation (%d vs %d bytes)", fig, len(ff), len(full))
				}
			}
		})
	}
	if !forwarded {
		t.Error("fast-forward never engaged; the identity is vacuous")
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
