package mem

import (
	"testing"

	"repro/internal/phys"
)

func cfg() Config {
	return Config{ReadService: 10, WriteService: 20, WriteCouple: 4, Latency: 100, QueueDepth: 4}
}

func TestReadTiming(t *testing.T) {
	s := New(cfg(), phys.T2())
	if done := s.Read(0, s.Controller(0)); done != 110 {
		t.Errorf("first read done at %d, want service+latency=110", done)
	}
	// Second read to the same controller queues behind the first.
	if done := s.Read(0, s.Controller(0x200)); done != 120 {
		t.Errorf("queued read done at %d, want 120", done)
	}
	// A different controller is independent.
	if done := s.Read(0, s.Controller(0x80)); done != 110 {
		t.Errorf("other-controller read done at %d, want 110", done)
	}
}

func TestWriteIsPostedAndCouples(t *testing.T) {
	s := New(cfg(), phys.T2())
	s.Write(0, 0) // occupies southbound, couples 4 cycles northbound
	if done := s.Read(0, s.Controller(0)); done != 114 {
		t.Errorf("read after write done at %d, want couple(4)+service(10)+latency(100)=114", done)
	}
	st := s.Stats()
	if st[0].Writes != 1 || st[0].Reads != 1 {
		t.Errorf("stats %+v", st[0])
	}
}

func TestLoadOnlyAvoidsCoupling(t *testing.T) {
	// The Sect. 2.1 conjecture: load-dominated kernels avoid bidirectional
	// overhead. n reads with writes interleaved must take longer than n
	// reads alone.
	a := New(cfg(), phys.T2())
	b := New(cfg(), phys.T2())
	var lastA, lastB int64
	for i := 0; i < 10; i++ {
		lastA = a.Read(0, a.Controller(0))
		b.Write(0, 0)
		lastB = b.Read(0, b.Controller(0))
	}
	if lastB <= lastA {
		t.Errorf("mixed read/write stream (%d) not slower than load-only (%d)", lastB, lastA)
	}
}

func TestQueueFull(t *testing.T) {
	s := New(cfg(), phys.T2())
	for i := 0; i < 4; i++ {
		s.Read(0, s.Controller(0))
	}
	if !s.Full(0, s.Controller(0)) {
		t.Error("queue not full after QueueDepth reads at one instant")
	}
	if s.Full(0, s.Controller(0x80)) {
		t.Error("other controller reported full")
	}
	// After the backlog drains, the queue accepts again.
	if s.Full(39, s.Controller(0)) {
		t.Error("queue still full after drain")
	}
	if s.Full(1<<40, s.Controller(0)) {
		t.Error("idle queue full")
	}
}

func TestUtilizationAndBusy(t *testing.T) {
	s := New(cfg(), phys.T2())
	s.Read(0, s.Controller(0))
	s.Read(0, s.Controller(0))
	u := s.Utilization(100)
	if u[0] != 0.2 {
		t.Errorf("controller 0 utilization %f, want 0.2", u[0])
	}
	if s.BusyCycles() != 20 {
		t.Errorf("busy cycles %d", s.BusyCycles())
	}
	if s.MaxFreeAt() != 20 {
		t.Errorf("max free at %d", s.MaxFreeAt())
	}
}

func TestControllerSelectionByMapping(t *testing.T) {
	s := New(cfg(), phys.T2())
	// 0x000 -> ctl 0, 0x080 -> ctl 1, 0x100 -> ctl 2, 0x180 -> ctl 3.
	for i, a := range []phys.Addr{0x000, 0x080, 0x100, 0x180} {
		s.Read(0, s.Controller(a))
		if got := s.Stats()[i].Reads; got != 1 {
			t.Errorf("controller %d reads %d after targeted access", i, got)
		}
	}
}

func TestResetClearsState(t *testing.T) {
	s := New(cfg(), phys.T2())
	s.Read(0, s.Controller(0))
	s.Reset()
	if s.BusyCycles() != 0 || s.MaxFreeAt() != 0 {
		t.Error("reset did not clear controller state")
	}
}

// TestAdmitAtIsTheFullHorizon pins AdmitAt as the exact edge of Full:
// the queue is full at every time before the horizon and has room from
// the horizon on, and further traffic only moves the horizon later.
func TestAdmitAtIsTheFullHorizon(t *testing.T) {
	s := New(cfg(), phys.T2())
	ctl := s.Controller(0)
	prev := s.AdmitAt(ctl)
	for i := 0; i < 12; i++ {
		if i%3 == 2 {
			s.Write(0, 0)
		} else {
			s.Read(0, s.Controller(0))
		}
		h := s.AdmitAt(ctl)
		if h < prev {
			t.Fatalf("horizon moved back from %d to %d", prev, h)
		}
		prev = h
		for now := h - 30; now < h+30; now++ {
			if full := s.Full(now, ctl); full != (now < h) {
				t.Fatalf("after %d requests: Full(%d) = %v with horizon %d", i+1, now, full, h)
			}
		}
	}
}

// TestNewRejectsUnboundedQueue: the request queue is always finite, so a
// QueueDepth below 1 is a configuration error, not an unlimited queue.
func TestNewRejectsUnboundedQueue(t *testing.T) {
	for _, d := range []int64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New with QueueDepth %d did not panic", d)
				}
			}()
			c := cfg()
			c.QueueDepth = d
			New(c, phys.T2())
		}()
	}
}
