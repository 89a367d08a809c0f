package core

import (
	"testing"
	"testing/quick"

	"repro/internal/phys"
)

func TestUtilizationConvoy(t *testing.T) {
	mp := phys.T2()
	// Three congruent streams: every access at one controller per step.
	ss := StreamSet{Bases: []phys.Addr{0, 2 << 20, 4 << 20}, Stride: 64}
	if c := MeanConcurrency(mp, ss, 0); c != 1 {
		t.Errorf("congruent streams concurrency %f, want 1", c)
	}
	if Regime(mp, ss) != "convoy" {
		t.Errorf("regime %q", Regime(mp, ss))
	}
}

func TestUtilizationUniform(t *testing.T) {
	mp := phys.T2()
	ss := StreamSet{Bases: []phys.Addr{0, 128, 256, 384}, Stride: 64}
	if c := MeanConcurrency(mp, ss, 0); c != 4 {
		t.Errorf("planned streams concurrency %f, want 4", c)
	}
	if Regime(mp, ss) != "uniform" {
		t.Errorf("regime %q", Regime(mp, ss))
	}
	if rb := PredictRelativeBandwidth(mp, ss); rb != 1 {
		t.Errorf("relative bandwidth %f", rb)
	}
}

func TestPlanArrayOffsetsRecipe(t *testing.T) {
	p := PlanArrayOffsets(phys.T2(), 4)
	want := []int64{0, 128, 256, 384}
	for i, o := range p.Offsets {
		if o != want[i] {
			t.Fatalf("offsets %v, want %v", p.Offsets, want)
		}
	}
	if p.Concurrency != 4 {
		t.Errorf("planned concurrency %f", p.Concurrency)
	}
}

func TestPlanArrayOffsetsAlwaysUniformProperty(t *testing.T) {
	mp := phys.T2()
	f := func(s uint8) bool {
		streams := int(s%4) + 1
		p := PlanArrayOffsets(mp, streams)
		return p.Concurrency == float64(streams)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPlanRows(t *testing.T) {
	rp := PlanRows(phys.T2())
	if rp.SegAlign != 512 || rp.Shift != 128 || rp.Schedule != "static,1" {
		t.Errorf("row plan %+v, want 512/128/static,1", rp)
	}
}

func TestPhaseSpreadLBMLayouts(t *testing.T) {
	mp := phys.T2()
	// IvJK at N=64: stride = (N+2)*8 = 528 bytes: spreads.
	// IJKv at N=62: stride = 64^3*8: all streams congruent.
	// One padded row = 528 bytes = 16 mod 512: the 19 stream phases fan
	// out over 3 of 4 controllers at any instant (and rotate over all).
	if s := PhaseSpread(mp, 528, 19); s < 3 {
		t.Errorf("IvJK spread %d, want >= 3", s)
	}
	if s := PhaseSpread(mp, 64*64*64*8, 19); s != 1 {
		t.Errorf("aligned IJKv spread %d, want 1", s)
	}
	got := AdviseLayout(mp, "IJKv", 64*64*64*8, "IvJK", 528, 19)
	if got != "IvJK" {
		t.Errorf("advised %q", got)
	}
}

func TestExplainStreamOffset(t *testing.T) {
	mp := phys.T2()
	phases, regime := ExplainStreamOffset(mp, 1<<25, 0)
	if regime != "convoy" {
		t.Errorf("offset 0 regime %q", regime)
	}
	for _, p := range phases {
		if p != phases[0] {
			t.Errorf("offset 0 phases %v not identical", phases)
		}
	}
	_, regime = ExplainStreamOffset(mp, 1<<25, 16)
	if regime != "uniform" {
		t.Errorf("offset 16 regime %q", regime)
	}
	phases, _ = ExplainStreamOffset(mp, 1<<25, 32)
	// Sect. 2.1: "at odd multiples of 32 ... bit 8 is different for array
	// B's base and thus two controllers are addressed".
	if phases[0] == phases[1] {
		t.Errorf("offset 32: B not on a different controller: %v", phases)
	}
}

func TestPeriodFallbackForHashedMapping(t *testing.T) {
	mp := phys.XORMapping{}
	if period(mp) != 64 {
		t.Errorf("hashed-mapping period %d, want line size", period(mp))
	}
	// The planner must still produce line-aligned offsets.
	p := PlanArrayOffsets(mp, 4)
	for _, o := range p.Offsets {
		if o%64 != 0 {
			t.Errorf("offset %d not line aligned", o)
		}
	}
}

func TestXORMappingDefeatsConvoys(t *testing.T) {
	// The ablation claim: under a hashed interleave, even congruent bases
	// spread over controllers.
	mp := phys.XORMapping{}
	ss := StreamSet{Bases: []phys.Addr{0, 2 << 20, 4 << 20}, Stride: 64}
	if c := MeanConcurrency(mp, ss, 64); c < 1.5 {
		t.Errorf("hashed mapping concurrency %f, want > 1.5", c)
	}
}

// t2spec is the T2 machine description the historical tests were written
// against.
