package chip_test

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/chip"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/omp"
	"repro/internal/phys"
)

// calN is large enough that three arrays overflow the 4 MB L2 (no reuse),
// yet small enough for fast tests: 3 x 2 MB = 6 MB.
const calN = 1 << 18

// t2cfg returns the calibrated machine every calibration check targets.
func t2cfg() chip.Config { return machine.MustGet("t2").Config }

func runTriad(t *testing.T, offsetWords int64, threads int) chip.Result {
	t.Helper()
	sp := alloc.NewSpace()
	bases := sp.Common(3, calN+offsetWords, phys.WordSize)
	k := kernels.StreamTriad(bases[0], bases[1], bases[2], calN)
	m := chip.New(t2cfg())
	return m.Run(k.Program(omp.StaticBlock{}, threads))
}

// TestCalibrationReport prints the calibration landscape for manual
// inspection with -v; it never fails.
func TestCalibrationReport(t *testing.T) {
	for _, off := range []int64{0, 8, 13, 16, 24, 32, 48, 64, 96} {
		r := runTriad(t, off, 64)
		tot := float64(r.Cycles) * 64
		t.Logf("triad off=%3d: %6.2f GB/s rep, %6.2f act, util %.2f/%.2f/%.2f/%.2f, load %.2f store %.2f comp %.2f, l2hit %.3f wb %d",
			off, r.GBps, r.ActualGBps, r.MCUtil[0], r.MCUtil[1], r.MCUtil[2], r.MCUtil[3],
			float64(r.LoadStall)/tot, float64(r.StoreStall)/tot, float64(r.ComputeStall)/tot,
			r.L2.HitRate(), r.L2.Writebacks)
	}
}

// TestCalibrationStreamTriadWorst checks E7: at zero offset all three
// arrays are congruent mod 512, every thread hits one controller at a
// time, and reported bandwidth collapses to the paper's ~3.7 GB/s floor.
func TestCalibrationStreamTriadWorst(t *testing.T) {
	r := runTriad(t, 0, 64)
	if r.GBps < 3.0 || r.GBps > 6.0 {
		t.Errorf("worst-case triad bandwidth = %.2f GB/s, want ~4.6 (paper floor ~4.5)", r.GBps)
	}
	// The convoy rotates over the controllers, so the long-run per-
	// controller shares are equal; the signature of "one controller at a
	// time" is that the summed utilization is about one controller's worth.
	var sum float64
	for _, u := range r.MCUtil {
		sum += u
	}
	if sum > 1.5 {
		t.Errorf("worst-case summed controller utilization = %.2f, want ~1 (one controller at a time)", sum)
	}
}

// TestCalibrationStreamTriadBest checks E7: a skewed offset spreads the
// streams over all four controllers and bandwidth reaches the ~13-16 GB/s
// ceiling of Figs. 2 and 4.
func TestCalibrationStreamTriadBest(t *testing.T) {
	r := runTriad(t, 13, 64)
	if r.GBps < 9.5 || r.GBps > 18.0 {
		t.Errorf("best-case triad bandwidth = %.2f GB/s, want ~11-13", r.GBps)
	}
	var sum float64
	for _, u := range r.MCUtil {
		sum += u
	}
	if sum < 2.0 {
		t.Errorf("best-case summed controller utilization = %.2f, want >2 (uniform use of all controllers)", sum)
	}
}

// TestCalibrationHalfOffset checks the paper's Sect. 2.1 explanation: at
// odd multiples of 32 words, bit 8 differs for array B, two controllers are
// addressed, and performance roughly doubles versus the zero-offset case.
func TestCalibrationHalfOffset(t *testing.T) {
	worst := runTriad(t, 0, 64)
	half := runTriad(t, 32, 64)
	ratio := half.GBps / worst.GBps
	if ratio < 1.5 || ratio > 2.8 {
		t.Errorf("offset-32 / offset-0 ratio = %.2f, want ~2 (paper: expected improvement of 100%%)", ratio)
	}
}

// TestCalibrationThreadScaling checks the latency-hiding claim of Sect. 1:
// one thread per core cannot saturate memory, and peak bandwidth does not
// change from 32 to 64 threads.
func TestCalibrationThreadScaling(t *testing.T) {
	r8 := runTriad(t, 13, 8)
	r32 := runTriad(t, 13, 32)
	r64 := runTriad(t, 13, 64)
	if r8.GBps > 0.7*r32.GBps {
		t.Errorf("8-thread bandwidth %.2f vs 32-thread %.2f: expected clear scaling gap", r8.GBps, r32.GBps)
	}
	ratio := r64.GBps / r32.GBps
	if ratio < 0.85 || ratio > 1.35 {
		t.Errorf("64/32 thread ratio = %.2f, want ~1 (saturation)", ratio)
	}
}

// TestCalibrationCopy checks E7's absolute level for STREAM copy: the
// reported number should sit near the paper's ~11-12 GB/s, i.e. ~16-18
// GB/s actual traffic including the read-for-ownership.
func TestCalibrationCopy(t *testing.T) {
	sp := alloc.NewSpace()
	bases := sp.Common(3, calN+13, phys.WordSize)
	k := kernels.StreamCopy(bases[2], bases[0], calN)
	m := chip.New(t2cfg())
	p := k.Program(omp.StaticBlock{}, 64)
	r := m.Run(p)
	if r.GBps < 8.0 || r.GBps > 14.0 {
		t.Errorf("copy reported bandwidth = %.2f GB/s, want ~11", r.GBps)
	}
	if r.ActualGBps < 13.0 || r.ActualGBps > 20.0 {
		t.Errorf("copy actual traffic = %.2f GB/s, want ~16-18 (paper: 'roughly 18GB/s including RFO')", r.ActualGBps)
	}
}

// TestCalibrationLoadOnly checks the conjecture substantiated in Sect. 2.1
// via [4]: kernels dominated by loads avoid the bidirectional-transfer
// overhead and achieve somewhat larger bandwidth than copy/triad.
func TestCalibrationLoadOnly(t *testing.T) {
	sp := alloc.NewSpace()
	bases := sp.OffsetBases(4, calN*phys.WordSize, phys.PageSize, 128)
	k := kernels.LoadSum(bases, calN)
	m := chip.New(t2cfg())
	p := k.Program(omp.StaticBlock{}, 64)
	load := m.Run(p)
	triad := runTriad(t, 13, 64)
	if load.ActualGBps <= triad.ActualGBps {
		t.Errorf("load-only actual %.2f GB/s not above triad actual %.2f GB/s", load.ActualGBps, triad.ActualGBps)
	}
}
