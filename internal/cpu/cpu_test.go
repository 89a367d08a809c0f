package cpu

import "testing"

func TestComputeChargesIssue(t *testing.T) {
	c := New(Config{Cores: 1, GroupsPerCore: 1, LSUPipes: 2})
	d := Demand{MemOps: 4, Flops: 2, IntOps: 2}
	done := c.Compute(0, 0, 0, d)
	// Issue: 8 instructions at 1/cycle dominates FPU (2) and LSU (2).
	if done != 8 {
		t.Errorf("compute done at %d, want 8 (issue-bound)", done)
	}
}

func TestFPUSharedWithinCore(t *testing.T) {
	c := New(Config{Cores: 1, GroupsPerCore: 2, LSUPipes: 2})
	d := Demand{Flops: 100}
	// Two strands in different groups share one FPU: the second completes
	// after 200 cycles, not 100.
	first := c.Compute(0, 0, 0, d)
	second := c.Compute(0, 0, 1, d)
	if first != 100 || second != 200 {
		t.Errorf("FPU sharing: first %d, second %d; want 100, 200", first, second)
	}
	if c.FPUBusy(0) != 200 {
		t.Errorf("FPU busy %d", c.FPUBusy(0))
	}
}

func TestGroupsIssueIndependently(t *testing.T) {
	c := New(Config{Cores: 1, GroupsPerCore: 2, LSUPipes: 2})
	d := Demand{IntOps: 50}
	a := c.Compute(0, 0, 0, d)
	b := c.Compute(0, 0, 1, d)
	if a != 50 || b != 50 {
		t.Errorf("independent groups serialized: %d, %d", a, b)
	}
	// Same group serializes.
	e := c.Compute(0, 0, 0, d)
	if e != 100 {
		t.Errorf("same-group issue %d, want 100", e)
	}
}

func TestLSURate(t *testing.T) {
	c := New(Config{Cores: 1, GroupsPerCore: 4, LSUPipes: 2})
	// 10 mem ops at 2/cycle = 5 cycles, but issue (10 instr at 1/cy)
	// dominates within one group; use separate groups to observe LSU.
	c.Compute(0, 0, 0, Demand{MemOps: 100})
	done := c.Compute(0, 0, 1, Demand{MemOps: 100})
	// Group 1's issue takes 100; core LSU has 50 cycles backlog from
	// group 0, so LSU gives 50+50 = 100: equal; then a third:
	done = c.Compute(0, 0, 2, Demand{MemOps: 100})
	if done != 150 {
		t.Errorf("third strand LSU-bound completion %d, want 150", done)
	}
}

func TestZeroDemand(t *testing.T) {
	c := New(Config{Cores: 2, GroupsPerCore: 2, LSUPipes: 2})
	if done := c.Compute(42, 1, 1, Demand{}); done != 42 {
		t.Errorf("zero demand completed at %d", done)
	}
}

func TestDemandHelpers(t *testing.T) {
	d := Demand{1, 2, 3}.Add(Demand{10, 20, 30}).Scale(2)
	if d != (Demand{22, 44, 66}) {
		t.Errorf("demand arithmetic gave %+v", d)
	}
	if d.Total() != 132 {
		t.Errorf("total %d", d.Total())
	}
}

func TestTotals(t *testing.T) {
	c := New(Config{Cores: 2, GroupsPerCore: 2, LSUPipes: 2})
	c.Compute(0, 0, 0, Demand{Flops: 10, IntOps: 5})
	c.Compute(0, 1, 1, Demand{Flops: 7})
	if c.TotalFPUBusy() != 17 {
		t.Errorf("total FPU busy %d", c.TotalFPUBusy())
	}
	c.Reset()
	if c.TotalFPUBusy() != 0 {
		t.Error("reset did not clear FPU cursors")
	}
}
