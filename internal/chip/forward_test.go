package chip

import (
	"reflect"
	"testing"

	"repro/internal/alloc"
	"repro/internal/cache"
	"repro/internal/kernels"
	"repro/internal/omp"
	"repro/internal/phys"
	"repro/internal/trace"
)

// triadProgAt builds a STREAM triad program with the given offset and team
// size, pre-warmed like the figure harnesses.
func triadProgAt(n, off int64, threads int) *trace.Program {
	return triadProgSched(n, off, threads, omp.StaticBlock{})
}

// triadProgSched is triadProgAt under an arbitrary loop schedule.
func triadProgSched(n, off int64, threads int, sched omp.Schedule) *trace.Program {
	sp := alloc.NewSpace()
	bases := sp.Common(3, n+off, phys.WordSize)
	k := kernels.StreamTriad(bases[0], bases[1], bases[2], n)
	p := k.Program(sched, threads)
	p.WarmLines = (4 << 20) / phys.LineSize
	return p
}

// stripFF zeroes the how-it-was-computed telemetry, which is the only part
// of a Result allowed to differ between full simulation and fast-forward.
func stripFF(r Result) Result {
	r.FFItems, r.FFCycles, r.FFPeriod = 0, 0, 0
	r.FFJumps, r.FFSkippedEpochs = 0, 0
	return r
}

// TestFastForwardEquivalence is the chip-level half of the fast-forward
// exactness proof: for streaming programs across team sizes and offsets,
// a fast-forwarded run must produce a Result deeply equal to full
// event-by-event simulation — cycles, all stall breakdowns, L2 stats and
// per-controller traffic included. The 16-thread case must actually
// engage fast-forward, so the equality is not vacuous.
func TestFastForwardEquivalence(t *testing.T) {
	activated := false
	for _, tc := range []struct {
		threads int
		off     int64
	}{{16, 8}, {16, 0}, {64, 8}, {64, 0}, {8, 16}} {
		cfgOn := t2cfg()
		cfgOff := t2cfg()
		cfgOff.DisableFastForward = true
		const n = 1 << 15
		on := New(cfgOn).Run(triadProgAt(n, tc.off, tc.threads))
		off := New(cfgOff).Run(triadProgAt(n, tc.off, tc.threads))
		if off.FFItems != 0 || off.FFCycles != 0 {
			t.Fatalf("threads=%d off=%d: disabled run reports fast-forward telemetry %d/%d",
				tc.threads, tc.off, off.FFItems, off.FFCycles)
		}
		if on.FFItems > 0 {
			activated = true
		}
		if !reflect.DeepEqual(stripFF(on), stripFF(off)) {
			t.Errorf("threads=%d off=%d: fast-forward diverged from full simulation:\n ff:   %+v\n full: %+v",
				tc.threads, tc.off, on, off)
		}
	}
	if !activated {
		t.Error("fast-forward never engaged on any tested point; the equivalence is vacuous")
	}
}

// TestSpeculativeEquivalence runs the fast-forward contract on every
// topology. A jump is speculative: the detector extrapolates a validated
// period, replays the tag store against a checkpoint, and either commits
// or rolls back. Committed, declined or never armed (the hashed mapping),
// the Result must equal full simulation, fast-forward telemetry aside.
func TestSpeculativeEquivalence(t *testing.T) {
	for name, cfg := range topologies() {
		t.Run(name, func(t *testing.T) {
			off := cfg
			off.DisableFastForward = true
			for _, mk := range []func() *trace.Program{
				func() *trace.Program { return triadProgAt(1<<15, 8, 16) },
				func() *trace.Program { return triadProgAt(1<<14, 0, 64) },
				func() *trace.Program { return marchingProg(16, 120) },
			} {
				on := New(cfg).Run(mk())
				full := New(off).Run(mk())
				if name == "xor" && on.FFItems != 0 {
					t.Fatalf("hashed mapping fast-forwarded %d items; it has no spatial period", on.FFItems)
				}
				if !reflect.DeepEqual(stripFF(on), stripFF(full)) {
					t.Fatalf("fast-forward diverged from full simulation:\n ff:   %+v\n full: %+v", on, full)
				}
			}
		})
	}
}

// TestSpeculativeCommits pins the profitable path: on a steady streaming
// program the detector commits jumps that cover most of the run, and the
// committed result is still exactly full simulation's.
func TestSpeculativeCommits(t *testing.T) {
	const n, off, threads = 1 << 15, 8, 16
	on := New(t2cfg()).Run(triadProgAt(n, off, threads))
	cfgOff := t2cfg()
	cfgOff.DisableFastForward = true
	full := New(cfgOff).Run(triadProgAt(n, off, threads))
	if on.FFJumps == 0 {
		t.Fatal("no jump committed on a steady streaming program")
	}
	if 2*on.FFCycles < on.Cycles {
		t.Errorf("committed jumps cover only %d of %d cycles; want at least half", on.FFCycles, on.Cycles)
	}
	if !reflect.DeepEqual(stripFF(on), stripFF(full)) {
		t.Fatalf("committed run diverged from full simulation:\n ff:   %+v\n full: %+v", on, full)
	}
}

// TestCheckpointRestoreProperty is the property test behind a declined
// jump's rollback. The detector checkpoints the L2 (tag store and per-bank
// counters), replays a candidate span, and on a mismatch restores both.
// For random access streams on every topology's L2 geometry, a cache
// driven through checkpoint, divergence and restore must then behave
// exactly like a twin that never diverged: same counters, same hit/miss
// and victim outcomes on every later access.
func TestCheckpointRestoreProperty(t *testing.T) {
	for name, cfg := range topologies() {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				rng := seed
				next := func() phys.Addr {
					rng = rng*6364136223846793005 + 1442695040888963407
					return phys.Addr((rng >> 20) % (1 << 24) &^ (phys.LineSize - 1))
				}
				twin := cache.New(cfg.L2, cfg.Mapping)
				sub := cache.New(cfg.L2, cfg.Mapping)
				for i := 0; i < 20000; i++ {
					a, w := next(), i%3 == 0
					twin.Access(a, w)
					sub.Access(a, w)
				}
				var img cache.Image
				banks := make([]cache.Stats, cfg.L2.Banks)
				sub.BankStatsInto(banks)
				sub.SnapshotInto(&img)
				save := rng
				for i := 0; i < 5000; i++ {
					sub.Access(next(), i%2 == 0)
				}
				sub.Restore(&img)
				sub.SetStats(banks)
				rng = save
				if g, w := sub.BankStats(), twin.BankStats(); !reflect.DeepEqual(g, w) {
					t.Fatalf("seed %d: counters after restore %+v, want %+v", seed, g, w)
				}
				for i := 0; i < 20000; i++ {
					a, w := next(), i%5 == 0
					if g, want := sub.Access(a, w), twin.Access(a, w); g != want {
						t.Fatalf("seed %d access %d (%#x): restored cache %+v, twin %+v", seed, i, a, g, want)
					}
				}
			}
		})
	}
}

// TestMachineReuseIsStateless pins the reuse contract behind exp.Scratch:
// a machine that has already run other programs must produce, for any
// program, exactly the Result a freshly built machine produces — including
// across team-size changes, which exercise the strand pool, and with the
// warm-image restore path in place of the first run's prefill.
func TestMachineReuseIsStateless(t *testing.T) {
	const n = 1 << 13
	mk := func(off int64, threads int) *trace.Program { return triadProgAt(n, off, threads) }

	fresh16 := New(t2cfg()).Run(mk(8, 16))
	reused := New(t2cfg())
	reused.Run(mk(0, 64))
	reused.Run(mk(24, 32))
	again16 := reused.Run(mk(8, 16))
	if !reflect.DeepEqual(fresh16, again16) {
		t.Errorf("reused machine diverged from fresh machine:\n fresh:  %+v\n reused: %+v", fresh16, again16)
	}

	// Back-to-back identical runs on one machine must agree too.
	a := reused.Run(mk(8, 16))
	b := reused.Run(mk(8, 16))
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical back-to-back runs differ:\n a: %+v\n b: %+v", a, b)
	}
}
