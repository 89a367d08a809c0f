package chip

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/alloc"
	"repro/internal/cpu"
	"repro/internal/kernels"
	"repro/internal/omp"
	"repro/internal/phys"
	"repro/internal/trace"
)

// The tests in this file pin the contract the sweep harnesses rely on when
// they split a sweep's points across workers: each worker owns one Machine
// (exp.Scratch) and runs its share of points back to back on it, while the
// other workers run theirs concurrently. None of that may show in a
// Result — not the number of workers, not which points a machine ran
// before, not the configuration paths off the default one.

// triadProgAt builds a STREAM triad program with the given offset and team
// size.
func triadProgAt(n, off int64, threads int) *trace.Program {
	return triadProgSched(n, off, threads, omp.StaticBlock{})
}

// triadProgSched is triadProgAt under an arbitrary loop schedule.
func triadProgSched(n, off int64, threads int, sched omp.Schedule) *trace.Program {
	sp := alloc.NewSpace()
	bases := sp.Common(3, n+off, phys.WordSize)
	k := kernels.StreamTriad(bases[0], bases[1], bases[2], n)
	return k.Program(sched, threads)
}

// topologies are the machine shapes the worker tests sweep: the paper's
// machine, a degenerate single-controller machine, a wide 8-controller
// machine, and the hashed mapping (no spatial period).
func topologies() map[string]Config {
	t2 := t2cfg()
	mc1 := t2
	mc1.Mapping = phys.NewInterleave("mc1", phys.LineSize, 1, 2)
	mc8 := t2
	mc8.Mapping = phys.NewInterleave("mc8", phys.LineSize, 8, 2)
	xor := t2
	xor.Mapping = phys.XORMapping{}
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

// TestWorkerInvariance: the number of workers a sweep's points are
// split across is pure execution parallelism. Machines running concurrently share
// no state, so every Result byte — cycles, stalls, per-controller traffic,
// L2 counters — is the solo run's at 1 to 4 concurrent
// workers, on every topology. Run under -race this also pins the absence
// of hidden shared mutable state between machines.
func TestWorkerInvariance(t *testing.T) {
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

// TestMachineReuseBatch: a worker runs its share of a sweep's
// points as a batch on one reused machine. Every point of the batch must get exactly
// the Result a freshly built machine gives it, whatever the machine ran
// before — across team sizes and program shapes, in either batch order, on
// every topology.
func TestMachineReuseBatch(t *testing.T) {
	batch := []func() *trace.Program{
		func() *trace.Program { return marchingProg(16, 120) },
		func() *trace.Program { return triadProgAt(1<<13, 8, 16) },
		func() *trace.Program { return marchingProg(4, 60) },
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

// TestMachineReuseOffDefaultPaths covers the configurations off the default path —
// the MSHR ablation and the shared-order OpenMP schedules (dynamic and
// guided self-scheduling, whose assigners hand out chunks from one
// counter in simulation-time order). A reused worker machine must
// reproduce a fresh machine's Result byte for byte on each of them.
func TestMachineReuseOffDefaultPaths(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() Config
		mk   func() *trace.Program
	}{
		{"mshr-ablation", func() Config {
			cfg := t2cfg()
			cfg.MSHRPerStrand = 4
			return cfg
		}, func() *trace.Program { return triadProgAt(1<<14, 8, 16) }},
		{"shared-scheduler", t2cfg, func() *trace.Program {
			return triadProgSched(1<<14, 8, 16, omp.Dynamic{Size: 64})
		}},
		{"guided-scheduler", t2cfg, func() *trace.Program {
			return triadProgSched(1<<14, 8, 16, omp.Guided{Min: 1})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := New(c.cfg()).Run(c.mk())
			m := New(c.cfg())
			m.Run(marchingProg(8, 40))
			if got := m.Run(c.mk()); !reflect.DeepEqual(got, want) {
				t.Fatalf("reused machine diverged from a fresh one:\n got  %+v\n want %+v", got, want)
			}
		})
	}
}

// TestRunAheadCouplingEveryTopology: with the run-ahead window enabled a fast
// strand is throttled to a slow strand's pace, on every topology, so the
// bounded run takes strictly longer than the unbounded one.
func TestRunAheadCouplingEveryTopology(t *testing.T) {
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

// TestMachineReuseIsStateless pins the reuse contract behind exp.Scratch:
// a machine that has already run other programs must produce, for any
// program, exactly the Result a freshly built machine produces — including
// across team-size changes, which exercise the strand pool. After each run
// the reused machine's whole L2, tag store and counters, must equal the
// fresh machine's too, so a set record the warm-up left stale shows even
// where the next program never reads it.
func TestMachineReuseIsStateless(t *testing.T) {
	const n = 1 << 13
	mk := func(off int64, threads int) *trace.Program { return triadProgAt(n, off, threads) }

	reused := New(t2cfg())
	check := func(name string, prog func() *trace.Program) {
		t.Helper()
		fresh := New(t2cfg())
		want := fresh.Run(prog())
		if got := reused.Run(prog()); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reused machine diverged from fresh machine:\n fresh:  %+v\n reused: %+v", name, want, got)
		}
		if !reflect.DeepEqual(*reused.rs.l2, *fresh.rs.l2) {
			t.Errorf("%s: reused machine's L2 differs from a fresh machine's after the same run", name)
		}
	}
	// Each array of the first triad spans 4,096 consecutive lines, so it
	// touches every set of the 4,096-set L2; the later, smaller triads
	// leave some of those sets alone.
	check("64T over every set", func() *trace.Program { return triadProgAt(1<<15, 0, 64) })
	check("32T at offset 24", func() *trace.Program { return mk(24, 32) })
	check("16T at offset 8", func() *trace.Program { return mk(8, 16) })

	// Back-to-back identical runs on one machine must agree too.
	a := reused.Run(mk(8, 16))
	b := reused.Run(mk(8, 16))
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical back-to-back runs differ:\n a: %+v\n b: %+v", a, b)
	}
}
