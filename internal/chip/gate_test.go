package chip

import (
	"strings"
	"testing"

	"repro/internal/phys"
	"repro/internal/trace"
)

// TestRetryDelayMustBePositive: a NACKed strand re-polls after RetryDelay
// cycles, so a delay of zero or less would poll at one cycle forever. New
// rejects it like the other invalid configurations.
func TestRetryDelayMustBePositive(t *testing.T) {
	for _, d := range []int64{0, -24} {
		cfg := t2cfg()
		cfg.RetryDelay = d
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("RetryDelay %d did not panic", d)
				}
				if msg, _ := r.(string); !strings.Contains(msg, "RetryDelay") {
					t.Errorf("panic %v does not name RetryDelay", r)
				}
			}()
			New(cfg)
		}()
	}
}

// TestNACKPollsAreNotEvents: 64 strands march in lockstep through lines
// that all start on one controller, the aliasing convoy of Sect. 2.1, so
// most of their time is spent NACKed. A NACKed strand's lost polls are
// counted but never dispatched. Every event is one of these:
//   - a strand's first step;
//   - per access, at most a store-buffer drain, a lookahead retry, and
//     one admission (a winning gate or a woken waiter's poll), plus a
//     load return;
//   - per item, a compute wakeup and an unpark;
//   - a gate that loses, which needs a controller acquisition since it
//     was armed, so at most one per line transfer.
//
// That bounds the events independently of the retry count. Were every lost
// poll an event, the events would exceed the retries.
func TestNACKPollsAreNotEvents(t *testing.T) {
	const threads, items = 64, 200
	gens := make([]trace.Generator, threads)
	for i := range gens {
		gens[i] = &marching{n: items, addr: phys.Addr(i) << 24}
	}
	p := prog(gens...)
	p.WarmLines = 1024
	m := New(t2cfg())
	r := m.Run(p)
	events := int64(m.LastRun().Events)

	var lines int64
	for _, c := range r.MC {
		lines += c.Lines()
	}
	accesses := int64(threads * items * 3)
	bound := threads + 4*accesses + 2*threads*items + lines
	if events > bound {
		t.Errorf("%d events exceed the bound %d", events, bound)
	}
	if r.Retries < 4*events {
		t.Errorf("%d retries for %d events: the workload hardly NACKs", r.Retries, events)
	}
	if r.RetryStall != r.Retries*t2cfg().RetryDelay {
		t.Errorf("retry stall %d != %d retries x %d", r.RetryStall, r.Retries, t2cfg().RetryDelay)
	}
}

// TestReleasedWaiterReprobesAndHits: twelve strands saturate controller 0
// with distinct lines, then strands A and B both load line X on the same
// controller and are NACKed. The gate admits one of them, whose miss
// installs X; that releases the other (installed), whose next poll must
// probe again and hit. Committing the miss probe it was NACKed with would
// install X a second time: a thirteenth miss and controller read and no
// hit.
func TestReleasedWaiterReprobesAndHits(t *testing.T) {
	const fillers = 12
	const x phys.Addr = 1 << 30 // controller 0, like every filler line
	var gens []trace.Generator
	for i := 0; i < fillers; i++ {
		gens = append(gens, &scripted{items: []trace.Item{loads(phys.Addr(i+1) << 20)}})
	}
	gens = append(gens,
		&scripted{items: []trace.Item{loads(x)}},
		&scripted{items: []trace.Item{loads(x)}})
	m := New(t2cfg())
	if ctl := m.cfg.Mapping.Controller(x); ctl != 0 {
		t.Fatalf("line X on controller %d, want 0", ctl)
	}
	r := m.Run(prog(gens...))
	if r.Retries == 0 {
		t.Fatal("no strand was NACKed: the test does not exercise the gate")
	}
	if r.L2.Misses != fillers+1 || r.L2.Hits != 1 {
		t.Errorf("L2 %+v, want %d misses and the released waiter's hit", r.L2, fillers+1)
	}
	if reads := r.MC[0].Reads; reads != fillers+1 {
		t.Errorf("controller 0 served %d reads, want %d: line X was read twice", reads, fillers+1)
	}
	if p := m.LastRun().Probes; p <= fillers+2 {
		t.Errorf("%d probes for %d accesses: the released waiter did not probe again", p, fillers+2)
	}
}
