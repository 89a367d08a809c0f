package chip

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/omp"
	"repro/internal/phys"
	"repro/internal/trace"
)

// The tests in this file pin the contract the sweep harnesses rely on when
// they shard a sweep's points across workers: each worker owns one Machine
// (exp.Scratch) and runs its shard of points back to back on it, while the
// other workers run theirs concurrently. None of that may show in a
// Result — not the number of workers, not which points a machine ran
// before, not the configuration paths the fast-forward detector declines.

// topologies are the machine shapes the worker tests sweep: the paper's
// machine, a degenerate single-controller machine, a wide 8-controller
// machine, and the hashed mapping (no spatial period, so fast-forward
// never arms).
func topologies() map[string]Config {
	t2 := t2cfg()
	mc1 := t2
	mc1.Mapping = phys.NewInterleave("mc1", phys.LineSize, 1, 2)
	mc1.L2.Banks = mc1.Mapping.Banks()
	mc8 := t2
	mc8.Mapping = phys.NewInterleave("mc8", phys.LineSize, 8, 2)
	mc8.L2.Banks = mc8.Mapping.Banks()
	xor := t2
	xor.Mapping = phys.XORMapping{}
	xor.L2.Banks = xor.Mapping.Banks()
	return map[string]Config{"t2": t2, "mc1": mc1, "mc8": mc8, "xor": xor}
}

// runConcurrently runs one fresh program per worker, each on its own
// machine, all at once, and returns the Results in worker order.
func runConcurrently(cfg Config, workers int, mk func() *trace.Program) []Result {
	out := make([]Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out[w] = New(cfg).Run(mk())
		}(w)
	}
	wg.Wait()
	return out
}

// demandOf is a compute-only demand of n integer ops.
func demandOf(n int64) (d cpu.Demand) {
	d.IntOps = n
	return
}

// TestShardedWorkerInvariance: the number of workers a sweep is sharded
// across is pure execution parallelism. Machines running concurrently share
// no state, so every Result byte — cycles, stalls, per-controller traffic,
// L2 counters, telemetry — is the solo run's at 1 to 4 concurrent
// workers, on every topology. Run under -race this also pins the absence
// of hidden shared mutable state between machines.
func TestShardedWorkerInvariance(t *testing.T) {
	for name, cfg := range topologies() {
		t.Run(name, func(t *testing.T) {
			mk := func() *trace.Program { return marchingProg(16, 120) }
			ref := New(cfg).Run(mk())
			if ref.Units != 16*120*8 {
				t.Fatalf("Units = %d, want %d", ref.Units, 16*120*8)
			}
			for _, workers := range []int{1, 2, 3, 4} {
				for w, got := range runConcurrently(cfg, workers, mk) {
					if !reflect.DeepEqual(got, ref) {
						t.Fatalf("workers=%d: worker %d diverged from the solo run:\n got  %+v\n want %+v",
							workers, w, got, ref)
					}
				}
			}
		})
	}
}

// TestShardedBatchingEquivalence: a worker runs its shard of a sweep as a
// batch on one reused machine. Every point of the batch must get exactly
// the Result a freshly built machine gives it, whatever the machine ran
// before — across team sizes, warm-up sizes and program shapes, in either
// batch order, on every topology.
func TestShardedBatchingEquivalence(t *testing.T) {
	batch := []func() *trace.Program{
		func() *trace.Program { return marchingProg(16, 120) },
		func() *trace.Program { return triadProgAt(1<<13, 8, 16) },
		func() *trace.Program {
			p := marchingProg(4, 60)
			p.WarmLines = 0
			return p
		},
		func() *trace.Program { return triadProgAt(1<<13, 0, 64) },
	}
	for name, cfg := range topologies() {
		t.Run(name, func(t *testing.T) {
			fresh := make([]Result, len(batch))
			for i, mk := range batch {
				fresh[i] = New(cfg).Run(mk())
			}
			m := New(cfg)
			for i, mk := range batch {
				if got := m.Run(mk()); !reflect.DeepEqual(got, fresh[i]) {
					t.Fatalf("batch point %d diverged from a fresh machine:\n got  %+v\n want %+v", i, got, fresh[i])
				}
			}
			for i := len(batch) - 1; i >= 0; i-- {
				if got := m.Run(batch[i]()); !reflect.DeepEqual(got, fresh[i]) {
					t.Fatalf("reversed batch point %d diverged from a fresh machine:\n got  %+v\n want %+v", i, got, fresh[i])
				}
			}
		})
	}
}

// TestShardedFallbacks covers the configurations off the default path —
// the MSHR ablation and the shared-order OpenMP schedules (dynamic and
// guided self-scheduling, whose assigners hand out chunks from one
// counter in simulation-time order) — where the fast-forward detector must
// either stay exact or decline and fall back to full simulation. Either
// way a reused worker machine with the detector armed must reproduce a
// fresh full simulation byte for byte, fast-forward telemetry aside. The
// guided run is long enough to commit a jump, so the skip is proven exact
// on a shared assigner, not just declined.
func TestShardedFallbacks(t *testing.T) {
	cases := []struct {
		name  string
		cfg   func() Config
		mk    func() *trace.Program
		jumps bool // the armed run must commit a jump
	}{
		{"mshr-ablation", func() Config {
			cfg := t2cfg()
			cfg.MSHRPerStrand = 4
			return cfg
		}, func() *trace.Program { return triadProgAt(1<<14, 8, 16) }, false},
		{"shared-scheduler", t2cfg, func() *trace.Program {
			return triadProgSched(1<<14, 8, 16, omp.Dynamic{Size: 64})
		}, false},
		{"guided-scheduler", t2cfg, func() *trace.Program {
			return triadProgSched(1<<16, 8, 16, omp.Guided{Min: 1})
		}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			off := c.cfg()
			off.DisableFastForward = true
			want := New(off).Run(c.mk())
			m := New(c.cfg())
			m.Run(marchingProg(8, 40))
			got := m.Run(c.mk())
			if c.jumps && got.FFJumps == 0 {
				t.Fatal("armed run committed no jump; the equivalence is vacuous")
			}
			if !reflect.DeepEqual(stripFF(got), stripFF(want)) {
				t.Fatalf("armed run diverged from full simulation:\n got  %+v\n want %+v", got, want)
			}
		})
	}
}

// TestShardedRunAheadCoupling: with the run-ahead window enabled a fast
// strand is throttled to a slow strand's pace, on every topology, so the
// bounded run takes strictly longer than the unbounded one.
func TestShardedRunAheadCoupling(t *testing.T) {
	mk := func() *trace.Program {
		fast := &marching{n: 200, addr: 0}
		slow := &scripted{}
		for i := 0; i < 20; i++ {
			slow.items = append(slow.items, trace.Item{
				Acc:   []trace.Access{{Addr: phys.Addr(1<<30 + i*phys.LineSize)}},
				Units: 1, Demand: demandOf(400),
			})
		}
		return prog(fast, slow)
	}
	for name, cfg := range topologies() {
		t.Run(name, func(t *testing.T) {
			bounded := cfg
			bounded.RunAhead = 2
			free := cfg
			free.RunAhead = 0
			b := New(bounded).Run(mk())
			u := New(free).Run(mk())
			if b.Cycles <= u.Cycles {
				t.Errorf("run-ahead window did not throttle: bounded %d cycles <= unbounded %d", b.Cycles, u.Cycles)
			}
		})
	}
}

// TestShardedFastForwardDisabled: DisableFastForward is honoured on every
// worker. The program is one the armed detector provably locks onto and
// jumps over, so the zero-telemetry assertion is not vacuous.
func TestShardedFastForwardDisabled(t *testing.T) {
	armed := New(t2cfg()).Run(triadProgAt(1<<15, 8, 16))
	if armed.FFCycles == 0 || armed.FFJumps == 0 {
		t.Fatalf("armed reference did not fast-forward (items=%d jumps=%d); the guard is vacuous", armed.FFItems, armed.FFJumps)
	}
	cfg := t2cfg()
	cfg.DisableFastForward = true
	for w, r := range runConcurrently(cfg, 2, func() *trace.Program { return triadProgAt(1<<15, 8, 16) }) {
		if r.FFItems != 0 || r.FFCycles != 0 || r.FFPeriod != 0 || r.FFJumps != 0 || r.FFSkippedEpochs != 0 {
			t.Errorf("worker %d: disabled run reports fast-forward telemetry: items=%d cycles=%d period=%d jumps=%d skipped=%d",
				w, r.FFItems, r.FFCycles, r.FFPeriod, r.FFJumps, r.FFSkippedEpochs)
		}
		if !reflect.DeepEqual(r, stripFF(armed)) {
			t.Errorf("worker %d: disabled run diverged from the armed run:\n got  %+v\n want %+v", w, r, stripFF(armed))
		}
	}
}

// TestShardedTelemetry pins the fast-forward telemetry a sweep aggregates
// across workers: on a program the detector jumps over it reports a
// period, at least one jump, and coverage bounded by the run itself — and
// it is deterministic, identical on every concurrent worker.
func TestShardedTelemetry(t *testing.T) {
	rs := runConcurrently(t2cfg(), 2, func() *trace.Program { return triadProgAt(1<<15, 8, 16) })
	r := rs[0]
	if r.FFJumps <= 0 || r.FFPeriod <= 0 {
		t.Errorf("FFJumps = %d, FFPeriod = %d; want both > 0", r.FFJumps, r.FFPeriod)
	}
	if r.FFItems <= 0 || r.FFItems > r.Units {
		t.Errorf("FFItems = %d, want in (0, %d]", r.FFItems, r.Units)
	}
	if r.FFCycles <= 0 || r.FFCycles > r.Cycles {
		t.Errorf("FFCycles = %d, want in (0, %d]", r.FFCycles, r.Cycles)
	}
	if r.FFSkippedEpochs <= 0 {
		t.Errorf("FFSkippedEpochs = %d, want > 0", r.FFSkippedEpochs)
	}
	if !reflect.DeepEqual(rs[1], r) {
		t.Errorf("telemetry differs between workers:\n got  %+v\n want %+v", rs[1], r)
	}
}
