package chip_test

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/alloc"
	"repro/internal/cache"
	"repro/internal/chip"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/omp"
	"repro/internal/phys"
)

// TestWarmImageMatchesPrefill: on every registered profile, and on t2
// with a smaller L2, the warm-up image that machines share equals one
// replayed here on a fresh cache. Every machine of the geometry restores
// that same image, whatever its other settings, so the prefill runs once
// per geometry per process.
func TestWarmImageMatchesPrefill(t *testing.T) {
	half := machine.MustGet("t2")
	half.Name, half.Config.L2 = "t2 with a 2 MB 8-way L2", cache.Config{SizeBytes: 2 << 20, Ways: 8}
	for _, p := range append(machine.Profiles(), half) {
		cfg := p.Config
		ref := cache.New(cfg.L2, cfg.Mapping)
		ref.PrefillSequential(1<<40, cfg.L2.SizeBytes/phys.LineSize, true)
		ref.ResetStats()
		img := chip.WarmImage(cfg)
		if !reflect.DeepEqual(img, ref.Snapshot()) {
			t.Errorf("%s: the shared warm image differs from a fresh prefill", p.Name)
		}
		other := cfg
		other.RunAhead, other.MSHRPerStrand = 0, 2
		if chip.WarmImage(cfg) != img || chip.WarmImage(other) != img {
			t.Errorf("%s: a second machine of the same L2 geometry built its own warm image", p.Name)
		}
	}
}

// coldMappings numbers the mappings coldGeometry relabels, so each is new
// to the warm-image memo, in an earlier test or a -count repeat alike.
var coldMappings atomic.Int64

// coldGeometry returns cfg with its interleave relabelled, which makes an
// L2 geometry the warm-image memo has not seen.
func coldGeometry(cfg chip.Config) chip.Config {
	iv := cfg.Mapping.(phys.Interleave)
	iv.Label = fmt.Sprintf("%s-cold%d", iv.Label, coldMappings.Add(1))
	cfg.Mapping = iv
	return cfg
}

// TestFreshMachinesWarmInParallel: fresh machines of two geometries, one
// of them still cold in the warm-image memo, start their first runs in
// parallel. Each run's Result and whole L2 tag store must equal those of
// a fresh machine of a new cold geometry run alone, which replays the
// prefill itself. Under -race this is the memo's data-race check.
func TestFreshMachinesWarmInParallel(t *testing.T) {
	const n = 1 << 12
	sp := alloc.NewSpace()
	bases := sp.Common(3, n+8, phys.WordSize)
	type outcome struct {
		res chip.Result
		l2  *cache.Image
	}
	run := func(cfg chip.Config) outcome {
		k := kernels.StreamTriad(bases[0], bases[1], bases[2], n)
		m := chip.New(cfg)
		res := m.Run(k.Program(omp.StaticBlock{}, 16))
		return outcome{res, m.L2Image()}
	}
	geoms := []chip.Config{coldGeometry(machine.MustGet("t2").Config), machine.MustGet("t2-wide4k").Config}
	got := make([]outcome, 3*len(geoms))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = run(geoms[i%len(geoms)])
		}()
	}
	wg.Wait()
	for i, g := range got {
		name := geoms[i%len(geoms)].Mapping.Name()
		want := run(coldGeometry(geoms[i%len(geoms)]))
		if !reflect.DeepEqual(g.res, want.res) {
			t.Errorf("%s, machine %d: parallel first run diverged from a run alone:\n got  %+v\n want %+v", name, i, g.res, want.res)
		}
		if !reflect.DeepEqual(g.l2, want.l2) {
			t.Errorf("%s, machine %d: L2 tag store after the parallel first run differs from a run alone", name, i)
		}
	}
}
