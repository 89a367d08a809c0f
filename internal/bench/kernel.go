package bench

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/jacobi"
	"repro/internal/kernels"
	"repro/internal/lbm"
	"repro/internal/omp"
	"repro/internal/phys"
	"repro/internal/segarray"
	"repro/internal/trace"
)

// Kernel names one simulated kernel run with the placement of its arrays:
// everything cmd/t2sim's flags can say about a program. Program is the one
// place that lays those recipes out, for t2sim and for the figure points
// that t2sim can name (Fig. 2, Fig. 5's plain arm, Figs. 6 and 7).
type Kernel struct {
	Name        string // copy, scale, add, triad, vtriad, loadsum, jacobi or lbm
	N           int64  // elements; grid edge for jacobi and lbm
	Threads     int
	Offset      int64 // copy, scale, add, triad: COMMON-block offset in DP words
	ArrayOffset int64 // vtriad, loadsum: array i shifted by i*ArrayOffset bytes
	Sweeps      int
	Sched       string // static, static1, dynamic or guided
	Layout      string // lbm: IJKv or IvJK
	Fused       bool   // lbm: coalesce the outer loop pair
	Planned     bool   // jacobi: core.PlanRows row placement, which forces static,1
}

// Program lays out the kernel's arrays in a fresh address space and
// compiles it for a machine with mapping m (the planner's input). An
// unknown kernel, schedule or layout is an error.
func (k Kernel) Program(m phys.Mapping) (*trace.Program, error) {
	sched, err := schedule(k.Sched)
	if err != nil {
		return nil, err
	}
	sp := alloc.NewSpace()
	var s kernels.Stream
	switch k.Name {
	case "copy", "scale", "add", "triad":
		b := sp.Common(3, k.N+k.Offset, phys.WordSize)
		switch k.Name {
		case "copy":
			s = kernels.StreamCopy(b[2], b[0], k.N)
		case "scale":
			s = kernels.StreamScale(b[1], b[2], k.N)
		case "add":
			s = kernels.StreamAdd(b[2], b[0], b[1], k.N)
		case "triad":
			s = kernels.StreamTriad(b[0], b[1], b[2], k.N)
		}
	case "vtriad", "loadsum":
		b := sp.OffsetBases(4, k.N*phys.WordSize, phys.PageSize, k.ArrayOffset)
		if k.Name == "vtriad" {
			s = kernels.VTriad(b[0], b[1], b[2], b[3], k.N)
		} else {
			s = kernels.LoadSum(b, k.N)
		}
	case "jacobi":
		spec := jacobi.Spec{N: k.N, Sched: sched, Sweeps: k.Sweeps}
		if k.Planned {
			rp := core.PlanRows(m)
			params := segarray.Params{ElemSize: phys.WordSize, Align: phys.PageSize,
				SegAlign: rp.SegAlign, Shift: rp.Shift}
			rows := make([]int64, k.N)
			for i := range rows {
				rows[i] = k.N
			}
			src := segarray.Plan(sp, params, rows)
			dst := segarray.Plan(sp, params, rows)
			spec.Src = func(i int64) phys.Addr { return src.Segs[i].Start }
			spec.Dst = func(i int64) phys.Addr { return dst.Segs[i].Start }
			spec.Sched = omp.StaticChunk{Size: 1}
		} else {
			spec.Src = jacobi.PlainRows(sp.Malloc(k.N*k.N*phys.WordSize), k.N)
			spec.Dst = jacobi.PlainRows(sp.Malloc(k.N*k.N*phys.WordSize), k.N)
		}
		return spec.Program(k.Threads), nil
	case "lbm":
		var layout lbm.Layout
		switch k.Layout {
		case "IJKv":
			layout = lbm.IJKv
		case "IvJK":
			layout = lbm.IvJK
		default:
			return nil, fmt.Errorf("unknown layout %q", k.Layout)
		}
		spec := lbm.TraceSpec{
			N: k.N, Layout: layout,
			OldBase:  sp.Malloc(lbm.GridBytes(k.N, layout)),
			NewBase:  sp.Malloc(lbm.GridBytes(k.N, layout)),
			MaskBase: sp.Malloc(lbm.MaskBytes(k.N, layout)),
			Fused:    k.Fused, Sched: sched, Sweeps: k.Sweeps,
		}
		return spec.Program(k.Threads), nil
	default:
		return nil, fmt.Errorf("unknown kernel %q", k.Name)
	}
	s.Sweeps = k.Sweeps
	return s.Program(sched, k.Threads), nil
}

// schedule resolves a schedule name.
func schedule(name string) (omp.Schedule, error) {
	switch name {
	case "static":
		return omp.StaticBlock{}, nil
	case "static1":
		return omp.StaticChunk{Size: 1}, nil
	case "dynamic":
		return omp.Dynamic{Size: 1}, nil
	case "guided":
		return omp.Guided{Min: 1}, nil
	}
	return nil, fmt.Errorf("unknown schedule %q", name)
}
