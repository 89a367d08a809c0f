package bench

import (
	"testing"

	"repro/internal/machine"
)

// TestScalingShape regenerates the controller-scaling study at test scale
// and validates its qualitative claims: cliff present at t2, growing with
// controller count, surviving coarse granules, absent under xor and with
// a single controller.
func TestScalingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling sweep spans seven machines; run without -short for the full shape check")
	}
	o := Small()
	series := outcome(t, o.ScalingExp()).Series()
	for _, s := range series {
		t.Logf("%s: %v", s.Name, s.Y)
	}
	if err := CheckScaling(series); err != nil {
		t.Error(err)
	}
}

// TestScalingPredictionsRankMeasurements is the per-profile crossval
// predicate: on every machine in the study, the analyzer's predicted
// relative bandwidth must rank the measured bandwidth of the two
// placements — planned never predicted-better-but-measured-worse.
func TestScalingPredictionsRankMeasurements(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling sweep spans seven machines; run without -short")
	}
	o := Small()
	out := outcome(t, o.ScalingExp())
	type arm struct{ pred, meas float64 }
	byMachine := map[string]map[string]arm{}
	for _, pr := range out.Points {
		m := pr.Params["machine"].(string)
		if byMachine[m] == nil {
			byMachine[m] = map[string]arm{}
		}
		byMachine[m][pr.Params["placement"].(string)] = arm{
			pred: pr.Result.Metrics["predicted"],
			meas: pr.Result.Y,
		}
	}
	for m, arms := range byMachine {
		c, p := arms["congruent"], arms["planned"]
		if machine.MustGet(m).Config.Mapping.Period() > 0 && p.pred < c.pred {
			// Hashed mappings have no period, so the planner has nothing to
			// plan against and its prediction carries no ranking claim there.
			t.Errorf("%s: planner predicts planned (%.2f) below congruent (%.2f)", m, p.pred, c.pred)
		}
		if p.pred > 1.5*c.pred && p.meas < c.meas {
			t.Errorf("%s: predicted a clear win (%.2f vs %.2f) but measured %.2f < %.2f GB/s",
				m, p.pred, c.pred, p.meas, c.meas)
		}
	}
}

// TestScalingStreamsCoverEveryProfile pins the stream-count invariant:
// the kernel must have at least as many streams as any swept profile has
// controllers, or the planned arm understates that profile's ceiling.
func TestScalingStreamsCoverEveryProfile(t *testing.T) {
	for _, name := range scalingMachines() {
		if c := machine.MustGet(name).Config.Mapping.Controllers(); c > scalingStreams {
			t.Errorf("%s has %d controllers but the scaling kernel only %d streams", name, c, scalingStreams)
		}
	}
}

// TestScalingNKeepsThreadsCongruent pins the chunk-rounding rule: for
// every periodic profile, each thread's chunk must be a whole number of
// interleave periods so the study's congruent arm is actually congruent.
func TestScalingNKeepsThreadsCongruent(t *testing.T) {
	for _, name := range scalingMachines() {
		mp := machine.MustGet(name).Config.Mapping
		n := scalingN(Small().ScalingN, mp, 64)
		if per := mp.Period(); per > 0 {
			chunkBytes := n / 64 * 8
			if chunkBytes%per != 0 {
				t.Errorf("%s: chunk of %d bytes not a multiple of the %d-byte period", name, chunkBytes, per)
			}
		}
		if n < Small().ScalingN {
			t.Errorf("%s: scalingN shrank the problem (%d < %d)", name, n, Small().ScalingN)
		}
	}
}
