package bench

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/omp"
	"repro/internal/phys"
	"repro/internal/stats"
)

// The controller-scaling study generalizes the paper's central experiment
// beyond the machine it was measured on: the same 8-stream kernel is run
// on every profile in the registry twice — once with all stream bases
// congruent modulo the profile's interleave period (the paper's worst
// case) and once with the analyzer's planned offsets — and the ratio
// between the two is the "congruence cliff". Sweeping the machine axis
// shows where the cliff appears (it grows with the controller count),
// where it moves (coarse granules shift the congruence modulus without
// removing it), and where it dissolves (a hashed interleave, or a single
// controller with nothing to alias against).

// scalingMachines returns the registry slice the scaling study sweeps, in
// x-axis order.
func scalingMachines() []string {
	return []string{"t2", "t2-1mc", "t2-2mc", "mc8", "t2-wide1k", "t2-wide4k", "xor"}
}

// scalingStreams is the stream count of the scaling kernel: at least as
// many streams as any registered profile has controllers (mc8 has exactly
// 8), so the planned placement can exercise every controller on every
// machine. A profile with more controllers than this would leave some
// idle in the planned arm and understate its ceiling — raise this
// alongside any such registry addition.
const scalingStreams = 8

// scalingN rounds the study's array length up so that each thread's
// contiguous chunk is a whole number of interleave periods. That keeps
// the 64 thread phases congruent — the condition under which the paper
// observes the convoy — on every profile, including the coarse-granule
// ones whose periods exceed the default chunk.
func scalingN(base int64, mp phys.Mapping, threads int64) int64 {
	n := base
	if per := mp.Period(); per > 0 {
		m := threads * per / phys.WordSize
		if m > 0 {
			n = (n + m - 1) / m * m
		}
	}
	return n
}

// ScalingExp declares the controller-scaling x interleave-granularity
// study: machine profile x {congruent, planned} placement of an 8-stream
// load kernel at 64 threads. Every point carries the analyzer's predicted
// relative bandwidth, so the trajectory doubles as a per-profile
// cross-validation of the planner.
//
// The study sweeps every profile itself, so it does not depend on the
// profile o targets: Cfg stays zero, Machine stays empty and the closure
// reads only o.ScalingN. The t2simd fingerprint relies on this to give
// every profile's request one key per scale.
func (o Options) ScalingExp() exp.Experiment {
	const threads = 64
	baseN := o.ScalingN
	names := scalingMachines()
	idx := map[string]float64{}
	for i, n := range names {
		idx[n] = float64(i)
	}
	return exp.Experiment{
		Name: "scaling",
		Doc:  "congruence cliff vs controller count and interleave granularity (GB/s, 8-stream load kernel)",
		Grid: exp.Grid{
			exp.Strs("machine", names...),
			exp.Strs("placement", "congruent", "planned"),
		},
		Run: func(_ chip.Config, p exp.Point, sc *exp.Scratch) (exp.Result, error) {
			prof, err := machine.Get(p.Str("machine"))
			if err != nil {
				return exp.Result{}, err
			}
			mp := prof.Config.Mapping
			n := scalingN(baseN, mp, threads)
			align := int64(phys.PageSize)
			if per := mp.Period(); per > align {
				align = per
			}
			offset := int64(0)
			if p.Str("placement") == "planned" {
				offset = core.PlanArrayOffsets(mp, scalingStreams).Offsets[1]
			}
			sp := alloc.NewSpace()
			bases := sp.OffsetBases(scalingStreams, n*phys.WordSize, align, offset)
			pred := core.PredictRelativeBandwidth(mp, core.StreamSet{Bases: bases, Stride: phys.LineSize})

			k := kernels.LoadSum(bases, n)
			prog := k.Program(omp.StaticBlock{}, threads)
			r, err := runProg(prof.Config, sc, prog)
			if err != nil {
				return exp.Result{}, err
			}
			m := bwMetrics(r)
			m["predicted"] = pred
			m["controllers"] = float64(mp.Controllers())
			m["period_bytes"] = float64(mp.Period())
			m["n"] = float64(n)
			return measured(exp.Result{
				Series:  p.Str("placement"),
				X:       idx[p.Str("machine")],
				Y:       r.GBps,
				Metrics: m,
			}, r), nil
		},
	}
}

// CheckScaling encodes the study's qualitative claims:
//
//  1. the congruence cliff is present on the paper's machine — planned
//     placement beats congruent placement by well over the paper's 2x;
//  2. it dissolves under a hashed interleave (xor) and on a machine with
//     a single controller (nothing to alias against);
//  3. it appears as controllers are added (2mc shows it, mc8 at least as
//     strongly) and survives coarser interleave granules, which only move
//     the congruence modulus;
//  4. the uniform (planned) ceiling scales with the controller count.
func CheckScaling(series []stats.Series) error {
	var cong, plan stats.Series
	for _, s := range series {
		switch s.Name {
		case "congruent":
			cong = s
		case "planned":
			plan = s
		}
	}
	names := scalingMachines()
	if cong.Len() != len(names) || plan.Len() != len(names) {
		return fmt.Errorf("scaling: series lengths %d/%d, want %d machines", cong.Len(), plan.Len(), len(names))
	}
	cliff := map[string]float64{}
	planned := map[string]float64{}
	for i, name := range names {
		if cong.Y[i] <= 0 {
			return fmt.Errorf("scaling: zero congruent bandwidth on %s", name)
		}
		cliff[name] = plan.Y[i] / cong.Y[i]
		planned[name] = plan.Y[i]
	}
	if cliff["t2"] < 2.0 {
		return fmt.Errorf("scaling: t2 cliff %.2f < 2 — congruence penalty missing on the paper's machine", cliff["t2"])
	}
	if cliff["xor"] > 1.3 {
		return fmt.Errorf("scaling: xor cliff %.2f > 1.3 — hashed interleave should dissolve the cliff", cliff["xor"])
	}
	if cliff["t2-1mc"] > 1.3 {
		return fmt.Errorf("scaling: t2-1mc cliff %.2f > 1.3 — one controller has nothing to alias against", cliff["t2-1mc"])
	}
	if cliff["t2-2mc"] < 1.5 {
		return fmt.Errorf("scaling: t2-2mc cliff %.2f < 1.5 — cliff should appear with the second controller", cliff["t2-2mc"])
	}
	if cliff["mc8"] < cliff["t2-2mc"] {
		return fmt.Errorf("scaling: mc8 cliff %.2f below t2-2mc cliff %.2f — cliff should grow with controllers", cliff["mc8"], cliff["t2-2mc"])
	}
	for _, wide := range []string{"t2-wide1k", "t2-wide4k"} {
		if cliff[wide] < 2.0 {
			return fmt.Errorf("scaling: %s cliff %.2f < 2 — a coarser granule moves the congruence modulus but must not remove the cliff", wide, cliff[wide])
		}
	}
	if planned["t2"] < 2.0*planned["t2-1mc"] {
		return fmt.Errorf("scaling: planned t2 %.2f GB/s not well above 1-controller %.2f — uniform ceiling should scale with controllers", planned["t2"], planned["t2-1mc"])
	}
	if planned["mc8"] < 1.05*planned["t2"] {
		return fmt.Errorf("scaling: planned mc8 %.2f GB/s not above t2 %.2f — extra controllers should raise the ceiling", planned["mc8"], planned["t2"])
	}
	return nil
}
