package chip

import (
	"strings"
	"testing"

	"repro/internal/phys"
	"repro/internal/trace"
)

// TestRetryDelayMustBePositive: with a finite controller queue a NACKed
// strand re-polls after RetryDelay cycles, so a delay of zero or less
// would poll at one cycle forever. New rejects it like the other invalid
// configurations; without a queue limit nothing is ever NACKed and the
// delay is unused.
func TestRetryDelayMustBePositive(t *testing.T) {
	for _, d := range []int64{0, -24} {
		cfg := t2cfg()
		cfg.RetryDelay = d
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("RetryDelay %d with QueueDepth %d did not panic", d, cfg.Mem.QueueDepth)
				}
				if msg, _ := r.(string); !strings.Contains(msg, "RetryDelay") {
					t.Errorf("panic %v does not name RetryDelay", r)
				}
			}()
			New(cfg)
		}()
	}
	cfg := t2cfg()
	cfg.RetryDelay = 0
	cfg.Mem.QueueDepth = 0
	r := New(cfg).Run(prog(&scripted{items: []trace.Item{loads(0x10000)}}))
	if r.Retries != 0 || r.Cycles <= 0 {
		t.Errorf("unlimited queue: %d retries in %d cycles", r.Retries, r.Cycles)
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
