// Package cpu models the execution resources of the UltraSPARC T2 cores
// that matter for memory-bound and arithmetic-bound kernels:
//
//   - each core supports eight strands in two groups of four; only one
//     strand per group issues in any cycle, so each group contributes at
//     most one instruction per cycle (modeled as a shared issue cursor);
//   - each core has a single floating-point pipeline shared by all eight
//     strands (one MULT or ADD per cycle, no FMA);
//   - each core has two memory pipelines (two load/store issues per cycle).
//
// A strand that waits for a memory reference is parked and costs nothing;
// the chip package models that by simply not scheduling the strand until
// its data returns. The constraint of a single outstanding cache miss per
// strand lives in the chip's strand state machine, not here.
package cpu

import (
	"fmt"

	"repro/internal/sim"
)

// Demand is the per-work-item instruction demand of a strand, in
// element-level operation counts.
type Demand struct {
	MemOps int64 // load/store instructions
	Flops  int64 // floating-point operations
	IntOps int64 // integer/branch/address operations
}

// Add returns d + o componentwise.
func (d Demand) Add(o Demand) Demand {
	return Demand{d.MemOps + o.MemOps, d.Flops + o.Flops, d.IntOps + o.IntOps}
}

// Scale returns d with every component multiplied by k.
func (d Demand) Scale(k int64) Demand {
	return Demand{d.MemOps * k, d.Flops * k, d.IntOps * k}
}

// Total returns the total instruction count.
func (d Demand) Total() int64 { return d.MemOps + d.Flops + d.IntOps }

// Config describes the core array.
type Config struct {
	Cores         int
	GroupsPerCore int
	LSUPipes      int64 // load/store issues per cycle per core
}

// T2Defaults returns the T2 core array: 8 cores, 2 thread groups each, 2
// memory pipes per core.
func T2Defaults() Config { return Config{Cores: 8, GroupsPerCore: 2, LSUPipes: 2} }

// Cores tracks the shared pipeline cursors of every core.
type Cores struct {
	cfg   Config
	issue []sim.Cursor // per (core, group): 1 instruction/cycle
	fpu   []sim.Cursor // per core: 1 flop/cycle
	lsu   []sim.Cursor // per core: LSUPipes mem ops/cycle
}

// New builds the core array.
func New(cfg Config) *Cores {
	if cfg.Cores <= 0 || cfg.GroupsPerCore <= 0 || cfg.LSUPipes <= 0 {
		panic(fmt.Sprintf("cpu: invalid config %+v", cfg))
	}
	return &Cores{
		cfg:   cfg,
		issue: make([]sim.Cursor, cfg.Cores*cfg.GroupsPerCore),
		fpu:   make([]sim.Cursor, cfg.Cores),
		lsu:   make([]sim.Cursor, cfg.Cores),
	}
}

// Config returns the core-array configuration.
func (c *Cores) Config() Config { return c.cfg }

// Compute charges a work item's instruction demand to the shared pipes of
// (core, group) for a strand whose data became available at time now, and
// returns the cycle at which the strand can issue its next memory request.
// The completion time is the latest of the three pipeline completions: the
// strand cannot run ahead of its group's issue slot, its core's FPU, or its
// core's memory pipes.
func (c *Cores) Compute(now sim.Time, core, group int, d Demand) sim.Time {
	done := now
	if t := d.Total(); t > 0 {
		_, id := c.issue[core*c.cfg.GroupsPerCore+group].Acquire(now, t)
		if id > done {
			done = id
		}
	}
	if d.Flops > 0 {
		_, fd := c.fpu[core].Acquire(now, d.Flops)
		if fd > done {
			done = fd
		}
	}
	if d.MemOps > 0 {
		dur := (d.MemOps + c.cfg.LSUPipes - 1) / c.cfg.LSUPipes
		_, ld := c.lsu[core].Acquire(now, dur)
		if ld > done {
			done = ld
		}
	}
	return done
}

// FPUBusy returns the busy cycles of core's floating-point pipe.
func (c *Cores) FPUBusy(core int) int64 { return c.fpu[core].Busy() }

// TotalFPUBusy sums FPU busy cycles over all cores.
func (c *Cores) TotalFPUBusy() int64 {
	var t int64
	for i := range c.fpu {
		t += c.fpu[i].Busy()
	}
	return t
}

// TotalIssueBusy sums group-issue busy cycles over all groups.
func (c *Cores) TotalIssueBusy() int64 {
	var t int64
	for i := range c.issue {
		t += c.issue[i].Busy()
	}
	return t
}

// Reset clears all pipeline cursors.
func (c *Cores) Reset() {
	for i := range c.issue {
		c.issue[i].Reset()
	}
	for i := range c.fpu {
		c.fpu[i].Reset()
	}
	for i := range c.lsu {
		c.lsu[i].Reset()
	}
}
