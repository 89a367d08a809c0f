//go:build faultinject

package faults

import (
	"errors"
	"testing"
)

// TestPointFaultInjection pins the point-fault contract: listed points
// panic or fail on exactly the leading attempts, everything else passes,
// and the counters record each delivery.
func TestPointFaultInjection(t *testing.T) {
	p := &Plan{Seed: 42, PanicPoints: []int{3}, FailPoints: []int{5}, PointAttempts: 2}
	Arm(p)
	defer Disarm()

	if err := PointFault(0, 0); err != nil {
		t.Fatalf("unlisted point injected %v", err)
	}
	for attempt := 0; attempt < 2; attempt++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("PanicPoints attempt %d did not panic", attempt)
				}
			}()
			PointFault(3, attempt)
		}()
		if err := PointFault(5, attempt); !errors.Is(err, ErrInjected) {
			t.Fatalf("FailPoints attempt %d returned %v, want ErrInjected", attempt, err)
		}
	}
	if err := PointFault(3, 2); err != nil {
		t.Fatalf("attempt past PointAttempts still failed: %v", err)
	}
	st := Stats()
	if st.PointPanics != 2 || st.PointFails != 2 {
		t.Fatalf("counters = %+v, want 2 panics and 2 fails", st)
	}
}

// TestDisarmedHooksAreInert proves an armed-then-disarmed (and a
// never-armed) build injects nothing — the property that lets the whole
// suite run under -tags faultinject.
func TestDisarmedHooksAreInert(t *testing.T) {
	Disarm()
	ResetStats()
	if err := PointFault(0, 0); err != nil {
		t.Fatalf("disarmed PointFault returned %v", err)
	}
	if CancelStep() != 0 {
		t.Fatal("disarmed CancelStep returned nonzero")
	}
	if st := Stats(); st != (Counters{}) {
		t.Fatalf("disarmed hooks moved counters: %+v", st)
	}
}

// TestSeedDerivationIsDeterministic pins PickPoints and CancelStepIn to
// their seeds: same seed, same faults; different seed, (almost surely)
// different faults.
func TestSeedDerivationIsDeterministic(t *testing.T) {
	a := (&Plan{Seed: 7}).PickPoints(100, 5)
	b := (&Plan{Seed: 7}).PickPoints(100, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("PickPoints diverged for one seed: %v vs %v", a, b)
		}
		for j := range a {
			if i != j && a[i] == a[j] {
				t.Fatalf("PickPoints repeated index %d: %v", a[i], a)
			}
		}
	}
	if s1, s2 := (&Plan{Seed: 1}).CancelStepIn(1000, 9000), (&Plan{Seed: 1}).CancelStepIn(1000, 9000); s1 != s2 {
		t.Fatalf("CancelStepIn diverged for one seed: %d vs %d", s1, s2)
	}
	if s := (&Plan{Seed: 1}).CancelStepIn(1000, 9000); s < 1000 || s >= 9000 {
		t.Fatalf("CancelStepIn out of range: %d", s)
	}
}
