//go:build faultinject

package chip

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/faults"
)

// TestInjectedStepCancel halts the sequential engine at a seed-derived
// event step — the deterministic stand-in for "context cancelled at a
// randomized engine step" — and asserts the clean-abort contract: a
// CancelError, partial telemetry, and a reusable machine.
func TestInjectedStepCancel(t *testing.T) {
	plan := &faults.Plan{Seed: 3}
	plan.CancelStep = plan.CancelStepIn(2_000, 20_000)
	faults.Arm(plan)
	defer faults.Disarm()

	cfg := t2cfg()
	m := New(cfg)
	res, err := m.RunCtx(context.Background(), marchingProg(16, 100_000))
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("budgeted run returned %v, want *CancelError", err)
	}
	if res.Cycles <= 0 {
		t.Fatalf("partial result has no clock horizon: %+v", res)
	}
	if st := faults.Stats(); st.StepCancels != 1 {
		t.Fatalf("StepCancels = %d, want 1", st.StepCancels)
	}

	faults.Disarm()
	got := m.Run(marchingProg(8, 40))
	want := New(cfg).Run(marchingProg(8, 40))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("machine state leaked across an injected cancel:\n got:  %+v\n want: %+v", got, want)
	}
}
