//go:build !faultinject

package faults

import (
	"context"
	"testing"
)

// TestProductionBuildIsInert pins the production contract: without the
// faultinject tag the hooks are free no-ops and BuildEnabled says so, so
// callers can assert they are not accidentally shipping an injectable
// binary.
func TestProductionBuildIsInert(t *testing.T) {
	if BuildEnabled {
		t.Fatal("BuildEnabled = true without the faultinject tag")
	}
	if err := PointFault(3, 0); err != nil {
		t.Fatalf("PointFault injected %v", err)
	}
	RequestFault(1)
	if CacheCorrupt() {
		t.Fatal("CacheCorrupt returned true")
	}
	ServiceStall(context.Background())
	if CancelStep() != 0 {
		t.Fatal("CancelStep returned nonzero")
	}
	NoteStepCancel()
	if st := Stats(); st != (Counters{}) {
		t.Fatalf("stub hooks moved counters: %+v", st)
	}
}
