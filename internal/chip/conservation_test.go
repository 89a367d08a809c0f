package chip_test

import (
	"fmt"
	"testing"

	"repro/internal/alloc"
	"repro/internal/chip"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/omp"
	"repro/internal/phys"
)

// TestResultConservation checks physical conservation laws on Results
// themselves rather than comparing two runs. Every L2 miss (a load miss or
// a store's read-for-ownership) is one controller read, every dirty
// eviction is one controller write, a controller is never busy for more
// than the whole run, the strands cannot together stall for longer than
// they exist, and every NACK-and-retry round trip stalls its strand for
// exactly RetryDelay cycles (the retry counters are summed lazily when a
// waiting strand leaves its controller's gate, so this law guards that
// sum), and every access the L2 counts was preceded by a tag probe of the
// run loop (an admitted waiter reuses its probe, but it probed once to be
// NACKed). The laws are checked for STREAM triad on every
// registered machine profile, at several team sizes and array offsets.
func TestResultConservation(t *testing.T) {
	const n = 1 << 12
	for _, prof := range machine.Profiles() {
		cfg := prof.Config
		m := chip.New(cfg)
		for _, threads := range []int{8, 16, 64} {
			for _, off := range []int64{0, 8, 16} {
				t.Run(fmt.Sprintf("%s/%dT/off%d", prof.Name, threads, off), func(t *testing.T) {
					bases := alloc.NewSpace().Common(3, n+off, phys.WordSize)
					k := kernels.StreamTriad(bases[0], bases[1], bases[2], n)
					p := k.Program(omp.StaticBlock{}, threads)
					p.WarmLines = cfg.L2.SizeBytes / phys.LineSize
					r := m.Run(p)

					var reads, writes int64
					for _, c := range r.MC {
						reads += c.Reads
						writes += c.Writes
					}
					if reads != r.L2.Misses {
						t.Errorf("controller reads %d != L2 misses %d", reads, r.L2.Misses)
					}
					if writes != r.L2.Writebacks {
						t.Errorf("controller writes %d != L2 writebacks %d", writes, r.L2.Writebacks)
					}
					if reads == 0 || writes == 0 {
						t.Errorf("reads %d, writes %d: the run moved no traffic to check", reads, writes)
					}
					for i, u := range r.MCUtil {
						if u < 0 || u > 1 {
							t.Errorf("controller %d utilization %g outside [0, 1]", i, u)
						}
					}
					if r.RetryStall != r.Retries*cfg.RetryDelay {
						t.Errorf("retry stall %d != %d retries x RetryDelay %d", r.RetryStall, r.Retries, cfg.RetryDelay)
					}
					if p := m.LastRun().Probes; p < uint64(r.L2.Hits+r.L2.Misses) {
						t.Errorf("%d tag probes for %d L2 hits and misses", p, r.L2.Hits+r.L2.Misses)
					}
					stalls := r.LoadStall + r.StoreStall + r.ComputeStall + r.RetryStall
					if limit := int64(threads) * r.Cycles; stalls > limit {
						t.Errorf("summed stalls %d exceed threads x cycles = %d", stalls, limit)
					}
				})
			}
		}
	}
}
