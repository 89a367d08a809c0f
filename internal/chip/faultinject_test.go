//go:build faultinject

package chip

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/faults"
)

// TestInjectedFFDeclineIsInvisible forces every validated fast-forward
// jump through the rollback checkpoint path — snapshot, replay, restore,
// stats rewind — and asserts the declined run is byte-identical to both
// the committed-jump run and full event-by-event simulation. This is the
// "fingerprint mismatch → rollback + declined jump" recovery proof: a
// decline may only cost time, never a result byte.
func TestInjectedFFDeclineIsInvisible(t *testing.T) {
	const n, off, threads = 1 << 15, 8, 16
	committed := New(t2cfg()).Run(triadProgAt(n, off, threads))
	if committed.FFJumps == 0 {
		t.Fatal("baseline run committed no jumps; the decline test would be vacuous")
	}

	faults.Arm(&faults.Plan{Seed: 1, DeclineJumps: true})
	defer faults.Disarm()
	declined := New(t2cfg()).Run(triadProgAt(n, off, threads))
	if st := faults.Stats(); st.FFDeclines == 0 {
		t.Fatal("no declines injected; the rollback path never ran")
	}
	if declined.FFJumps != 0 {
		t.Fatalf("run committed %d jumps with every candidate vetoed", declined.FFJumps)
	}

	cfgOff := t2cfg()
	cfgOff.DisableFastForward = true
	full := New(cfgOff).Run(triadProgAt(n, off, threads))

	if !reflect.DeepEqual(stripFF(declined), stripFF(full)) {
		t.Errorf("declined jumps changed the result vs full simulation:\n declined: %+v\n full:     %+v", declined, full)
	}
	if !reflect.DeepEqual(stripFF(declined), stripFF(committed)) {
		t.Errorf("declined jumps changed the result vs committed jumps:\n declined:  %+v\n committed: %+v", declined, committed)
	}
}

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
	cfg.DisableFastForward = true
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
