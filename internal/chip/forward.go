// Steady-state fast-forward: the paper's kernels are perfectly periodic in
// their steady state, so once the machine's observable state recurs, the
// remaining iterations replay the observed period verbatim and can be
// applied analytically — advance the clock, shift every FCFS cursor, credit
// every counter with (periods x per-period delta), and Skip the generators
// — instead of simulating them event by event.
//
// Exactness, not approximation, is the contract: the final Result must be
// byte-identical to full simulation. Three mechanisms enforce it.
//
//  1. Eligibility. Every generator must implement trace.Forwardable, which
//     restricts fast-forward to reuse-free streaming kernels — the only
//     workloads whose future hit/miss behaviour does not depend on the tag
//     store entries a skipped interval would have installed. The address
//     mapping must expose a spatial period (hashed interleaves do not and
//     opt out wholesale).
//
//  2. Detection + validation. Once per completed leader work item the chip
//     fingerprints everything that drives future evolution relative to
//     (now, absolute addresses): per-strand progress and blocked state,
//     in-flight item accesses and generator pattern phase modulo the
//     interleave period, the pending event queue relative to now, every
//     FCFS cursor's backlog, and the run-ahead window. A repeated
//     fingerprint yields a candidate period; the candidate must then
//     reproduce the exact counter deltas of its defining period over two
//     further simulated periods (the second also yields the per-access
//     address strides the tag-store replay uses) before any state is
//     touched.
//
//  3. Bounds. The jump multiplier is capped so the skipped span (a) stays
//     inside every generator's uniform region — no chunk edge, partial
//     item or sweep boundary is ever extrapolated over — and (b) never
//     crosses an L2 capacity turnover (a multiple of the cache's line
//     capacity in cumulative misses), where the victim population — and
//     with it the writeback pattern — changes regime.
//
// Everything the fingerprint abstracts away is either provably inert for
// eligible kernels (absolute tag values: streaming accesses miss
// regardless) or revalidated each period (per-bank traffic, victim
// dirtiness). The equivalence tests in chip and bench run every figure
// family and machine profile both ways and require deep equality.
package chip

import (
	"repro/internal/cache"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ffSampleBudget bounds how many fingerprint samples a run may take before
// the detector gives up. Steady states that are going to be caught at all
// are caught within a few dozen samples of settling (the contended 64-
// thread microstates never recur at any horizon — see DESIGN.md Sect. 9),
// so a small budget keeps the detector's cost negligible on runs it cannot
// help. A committed jump refunds the budget: post-jump regimes (a new
// sweep, a post-turnover victim population) are new steady states worth a
// fresh search.
const ffSampleBudget = 128

// ffCapacityZoneSets widens the protected window around an L2 capacity
// turnover, in per-set insert counts. The turnover is not a point: each
// set wraps at its own phase of the streams' cyclic sweep, so the victim
// population — and with it the writeback rate — shifts over a window of
// several inserts per set. Jumps must neither cross nor land inside that
// window; it is always crossed by real simulation, and the detector then
// re-locks onto the post-turnover steady state.
const ffCapacityZoneSets = 4

// cursorSnap is one FCFS cursor's accounting at a sample (and, in deltas,
// its per-period advance). The free horizon is not kept: a jump shifts it
// by the period's dt.
type cursorSnap struct {
	busy sim.Time
	ops  int64
}

// ffSnap is the full counter snapshot taken with a fingerprint sample.
// Everything needed to (a) compute per-period deltas and (b) apply them k
// times over is here; slices are pooled across samples and runs.
type ffSnap struct {
	idx      int64 // leader items completed at the sample
	now      sim.Time
	steps    uint64
	units    int64
	repBytes int64

	loadStall    int64
	storeStall   int64
	computeStall int64
	retryStall   int64
	retries      int64

	items []int64 // per strand
	l2    cache.Stats
	l2B   []cache.Stats
	mc    []mem.CtlStats
	cur   []cursorSnap
}

// ffDelta is the per-period state advance between two matching samples.
type ffDelta struct {
	dt         sim.Time
	steps      uint64
	units      int64
	repBytes   int64
	itemsTotal int64

	loadStall    int64
	storeStall   int64
	computeStall int64
	retryStall   int64
	retries      int64

	items []int64
	l2    cache.Stats
	l2B   []cache.Stats
	mc    []mem.CtlStats
	cur   []cursorSnap
}

// ffCandidate is a detected-but-unvalidated period. Validation takes two
// further simulated periods: the first re-proves the counter deltas, the
// second does so again while yielding the per-access address strides
// between two consecutively recorded period traces.
type ffCandidate struct {
	fp     uint64
	period int64 // in leader items
	at     int64 // sample index of the next validation checkpoint
	stage  int   // 1: first validation pending, 2: second (stride) pending
	base   *ffSnap
	d      ffDelta
}

// ffAccess is one recorded cache access of a validation period, including
// its outcome. The outcome is what makes the replay a proof: relative
// machine state is pinned by the fingerprint, generator output by the
// per-access strides, and cache behaviour by the outcome sequence — and a
// deterministic simulator evolving from equal state under equal inputs
// with equal cache outcomes replays the validated period exactly, timing
// included.
type ffAccess struct {
	addr   phys.Addr
	write  bool
	hit    bool
	vdirty bool
}

// ffRecLimit caps the recorded trace length; a period with more accesses
// than this is too long to replay profitably and is not fast-forwarded.
const ffRecLimit = 1 << 15

// ffState is the per-run fast-forward machinery, embedded in runState so
// its maps, pools and slices persist across a reused machine's runs.
type ffState struct {
	on      bool
	pending bool // leader completed an item: sample at end of this event
	window  int64
	budget  int
	leader  *strand
	gens    []trace.Forwardable

	capLines int64 // L2 capacity in lines
	warm     int64 // pre-filled warm lines

	seen    map[uint64]*ffSnap // last sample taken at each fingerprint
	pool    []*ffSnap
	cand    ffCandidate
	candSet bool
	vd      ffDelta // validation scratch

	// Access-trace recording for the tag-store replay: the cache accesses
	// of the two most recent validation periods and the per-access address
	// stride between them.
	recOn    bool
	rec      []ffAccess
	recPrev  []ffAccess
	strides  []int64
	l2BPre   []cache.Stats // pre-replay per-bank counters for declined jumps
	rollback cache.Image   // pre-replay checkpoint for declined jumps

	// Telemetry surfaced in Result.
	items   int64    // work items covered analytically
	cycles  int64    // cycles covered analytically
	period  sim.Time // last detected period in cycles (0: none)
	jumps   int64    // committed analytic jumps
	skipped int64    // engine steps covered analytically
}

// clearSeen recycles every remembered sighting into the snapshot pool.
func (ff *ffState) clearSeen() {
	for h, s := range ff.seen {
		ff.pool = append(ff.pool, s)
		delete(ff.seen, h)
	}
}

// ffReset recycles all detector state at the start of a run.
func (rs *runState) ffReset() {
	ff := &rs.ff
	ff.clearSeen()
	if ff.candSet {
		ff.pool = append(ff.pool, ff.cand.base)
	}
	ff.on, ff.pending, ff.candSet = false, false, false
	ff.recOn = false
	ff.rec, ff.recPrev = ff.rec[:0], ff.recPrev[:0]
	ff.items, ff.cycles, ff.period = 0, 0, 0
	ff.jumps, ff.skipped = 0, 0
	ff.leader = nil
	ff.gens = ff.gens[:0]
}

// ffInit arms the detector if the run qualifies: fast-forward not disabled,
// a field mapping with a spatial period, and every generator Forwardable.
func (rs *runState) ffInit(prog *trace.Program) {
	if rs.cfg.DisableFastForward {
		return
	}
	w := rs.cfg.Mapping.Period()
	if w <= 0 {
		return // hashed interleave: no spatial phase to fingerprint against
	}
	ff := &rs.ff
	for _, g := range prog.Gens {
		fg, ok := g.(trace.Forwardable)
		if !ok {
			ff.gens = ff.gens[:0]
			return
		}
		ff.gens = append(ff.gens, fg)
	}
	ff.on = true
	ff.budget = ffSampleBudget
	ff.window = w
	ff.leader = rs.strands[0]
	ff.capLines = rs.cfg.L2.SizeBytes / rs.cfg.L2.LineSize
	ff.warm = prog.WarmLines
	if ff.seen == nil {
		ff.seen = make(map[uint64]*ffSnap)
	}
}

// ffDisarm turns the detector off and recycles its snapshots.
func (rs *runState) ffDisarm() {
	ff := &rs.ff
	ff.clearSeen()
	if ff.candSet {
		ff.pool = append(ff.pool, ff.cand.base)
		ff.candSet = false
	}
	ff.recOn = false
	ff.on = false
}

// ffCursors enumerates every FCFS cursor in the model in a fixed order —
// L2 banks, controller channels, core pipelines — for snapshots,
// fingerprints and jumps alike.
func (rs *runState) ffCursors(f func(c *sim.Cursor)) {
	for i := range rs.banks {
		f(&rs.banks[i])
	}
	rs.mc.ForEachCursor(f)
	rs.cores.ForEachCursor(f)
}

// ffFingerprint hashes the machine state that determines future evolution,
// expressed relative to the current time and to absolute addresses (which
// are folded modulo the interleave period — their spatial phase). Two
// equal fingerprints assert: same blocked/parked strand pattern, same
// in-flight accesses by phase, same generator phases, same pending events
// by relative delay, same cursor backlogs, same run-ahead occupancy.
func (rs *runState) ffFingerprint() (uint64, bool) {
	ff := &rs.ff
	f := trace.NewFingerprint()
	now := rs.eng.Now()
	leadItems := ff.leader.items
	for _, s := range rs.strands {
		var flags uint64
		if s.active {
			flags |= 1
		}
		if s.parked {
			flags |= 2
		}
		f.Fold(flags)
		f.Fold(uint64(s.accIdx))
		f.Fold(uint64(s.items - leadItems))
		for j := s.sbPos; j < len(s.sb); j++ {
			v := s.sb[j] - now
			if v < 0 {
				v = 0
			}
			f.Fold(uint64(v))
		}
		for j := 0; j < s.sbPos; j++ {
			v := s.sb[j] - now
			if v < 0 {
				v = 0
			}
			f.Fold(uint64(v))
		}
		for j := range s.slots {
			v := s.slots[j] - now
			if v < 0 {
				v = 0
			}
			f.Fold(uint64(v))
		}
		if s.active {
			f.Fold(uint64(len(s.item.Acc) - s.accIdx))
			for _, a := range s.item.Acc[s.accIdx:] {
				f.FoldAddr(a.Addr, ff.window)
				if a.Write {
					f.Fold(1)
				} else {
					f.Fold(0)
				}
			}
			f.Fold(uint64(s.item.Demand.MemOps))
			f.Fold(uint64(s.item.Demand.Flops))
			f.Fold(uint64(s.item.Demand.IntOps))
			f.Fold(uint64(s.item.Units))
			f.Fold(uint64(s.item.RepBytes))
		}
		ff.gens[s.id].PatternPhase(&f, ff.window)
	}
	for _, p := range rs.parked {
		f.Fold(uint64(p.id))
	}
	if rs.runAhead > 0 {
		f.Fold(uint64(rs.minItems - leadItems))
	}
	closures := false
	rs.eng.ForEachPending(func(dt sim.Time, kind sim.Kind, arg int32, closure bool) {
		if closure {
			closures = true
			return
		}
		f.Fold(uint64(dt))
		f.Fold(uint64(kind))
		f.Fold(uint64(uint32(arg)))
	})
	rs.ffCursors(func(c *sim.Cursor) {
		v := c.FreeAt() - now
		if v < 0 {
			v = 0
		}
		f.Fold(uint64(v))
	})
	return uint64(f), !closures
}

// ffTakeSnap captures the current counters into a pooled snapshot.
func (rs *runState) ffTakeSnap(idx int64) *ffSnap {
	ff := &rs.ff
	var s *ffSnap
	if n := len(ff.pool); n > 0 {
		s = ff.pool[n-1]
		ff.pool = ff.pool[:n-1]
	} else {
		s = &ffSnap{}
	}
	s.idx = idx
	s.now = rs.eng.Now()
	s.steps = rs.eng.Steps()
	s.units, s.repBytes = rs.units, rs.repBytes
	s.loadStall, s.storeStall = rs.loadStall, rs.storeStall
	s.computeStall, s.retryStall = rs.computeStall, rs.retryStall
	s.retries = rs.retries

	s.items = s.items[:0]
	for _, st := range rs.strands {
		s.items = append(s.items, st.items)
	}
	s.l2 = rs.l2.Stats()
	nb := rs.cfg.Mapping.Banks()
	if cap(s.l2B) < nb {
		s.l2B = make([]cache.Stats, nb)
	}
	s.l2B = s.l2B[:nb]
	rs.l2.BankStatsInto(s.l2B)
	nc := rs.cfg.Mapping.Controllers()
	if cap(s.mc) < nc {
		s.mc = make([]mem.CtlStats, nc)
	}
	s.mc = s.mc[:nc]
	rs.mc.StatsInto(s.mc)
	s.cur = s.cur[:0]
	rs.ffCursors(func(c *sim.Cursor) {
		s.cur = append(s.cur, cursorSnap{busy: c.Busy(), ops: c.Ops()})
	})
	return s
}

// ffComputeDelta fills d with the advance from a to b (b later).
func ffComputeDelta(d *ffDelta, a, b *ffSnap) {
	d.dt = b.now - a.now
	d.steps = b.steps - a.steps
	d.units, d.repBytes = b.units-a.units, b.repBytes-a.repBytes
	d.loadStall = b.loadStall - a.loadStall
	d.storeStall = b.storeStall - a.storeStall
	d.computeStall = b.computeStall - a.computeStall
	d.retryStall = b.retryStall - a.retryStall
	d.retries = b.retries - a.retries
	d.items = d.items[:0]
	d.itemsTotal = 0
	for i := range b.items {
		di := b.items[i] - a.items[i]
		d.items = append(d.items, di)
		d.itemsTotal += di
	}
	d.l2 = cache.Stats{
		Hits:       b.l2.Hits - a.l2.Hits,
		Misses:     b.l2.Misses - a.l2.Misses,
		Writebacks: b.l2.Writebacks - a.l2.Writebacks,
	}
	d.l2B = d.l2B[:0]
	for i := range b.l2B {
		d.l2B = append(d.l2B, cache.Stats{
			Hits:       b.l2B[i].Hits - a.l2B[i].Hits,
			Misses:     b.l2B[i].Misses - a.l2B[i].Misses,
			Writebacks: b.l2B[i].Writebacks - a.l2B[i].Writebacks,
		})
	}
	d.mc = d.mc[:0]
	for i := range b.mc {
		d.mc = append(d.mc, mem.CtlStats{
			Reads:      b.mc[i].Reads - a.mc[i].Reads,
			Writes:     b.mc[i].Writes - a.mc[i].Writes,
			BusyCycles: b.mc[i].BusyCycles - a.mc[i].BusyCycles,
		})
	}
	d.cur = d.cur[:0]
	for i := range b.cur {
		d.cur = append(d.cur, cursorSnap{
			busy: b.cur[i].busy - a.cur[i].busy,
			ops:  b.cur[i].ops - a.cur[i].ops,
		})
	}
}

// ffDeltaEqual reports whether two per-period deltas agree exactly — the
// validation criterion before any jump.
func ffDeltaEqual(a, b *ffDelta) bool {
	if a.dt != b.dt || a.steps != b.steps ||
		a.units != b.units || a.repBytes != b.repBytes ||
		a.loadStall != b.loadStall || a.storeStall != b.storeStall ||
		a.computeStall != b.computeStall || a.retryStall != b.retryStall ||
		a.retries != b.retries ||
		a.l2 != b.l2 ||
		len(a.items) != len(b.items) || len(a.l2B) != len(b.l2B) ||
		len(a.mc) != len(b.mc) || len(a.cur) != len(b.cur) {
		return false
	}
	for i := range a.items {
		if a.items[i] != b.items[i] {
			return false
		}
	}
	for i := range a.l2B {
		if a.l2B[i] != b.l2B[i] {
			return false
		}
	}
	for i := range a.mc {
		if a.mc[i] != b.mc[i] {
			return false
		}
	}
	for i := range a.cur {
		if a.cur[i].busy != b.cur[i].busy || a.cur[i].ops != b.cur[i].ops {
			return false
		}
	}
	return true
}

// ffSample is the once-per-leader-item detector tick, invoked between
// events (after the current event's handler has fully run). It walks the
// search → candidate → validate → jump ladder described in the package
// comment.
func (rs *runState) ffSample() {
	ff := &rs.ff
	if rs.running != len(rs.strands) {
		rs.ffDisarm() // a strand retired: the tail is never periodic
		return
	}
	if ff.budget <= 0 {
		rs.ffDisarm()
		return
	}
	idx := ff.leader.items
	if ff.candSet && idx < ff.cand.at {
		return // waiting for a validation checkpoint: no sample taken
	}
	ff.budget--
	h, ok := rs.ffFingerprint()
	if !ok {
		rs.ffDisarm() // closure events pending: state not typed-representable
		return
	}
	if ff.candSet {
		cur := rs.ffTakeSnap(idx)
		ok := h == ff.cand.fp && len(ff.rec) <= ffRecLimit
		if ok {
			ffComputeDelta(&ff.vd, ff.cand.base, cur)
			ok = ffDeltaEqual(&ff.vd, &ff.cand.d)
		}
		if ok && ff.cand.stage == 1 {
			// First validation leg passed: keep the recorded trace as the
			// reference and record one more period for the strides.
			ff.rec, ff.recPrev = ff.recPrev[:0], ff.rec
			ff.pool = append(ff.pool, ff.cand.base)
			ff.cand.base = cur
			ff.cand.at = idx + ff.cand.period
			ff.cand.stage = 2
			return
		}
		if ok {
			// Second leg passed: derive per-access strides between the two
			// consecutive period traces; congruent traces prove the access
			// stream advances by fixed per-access strides.
			ok = len(ff.rec) == len(ff.recPrev)
			if ok {
				ff.strides = ff.strides[:0]
				for i := range ff.rec {
					a, b := &ff.recPrev[i], &ff.rec[i]
					if a.write != b.write || a.hit != b.hit || a.vdirty != b.vdirty {
						ok = false
						break
					}
					ff.strides = append(ff.strides, int64(b.addr)-int64(a.addr))
				}
			}
			if ok {
				rs.ffJump(&ff.cand.d)
				ff.pool = append(ff.pool, ff.cand.base, cur)
				ff.candSet = false
				ff.recOn = false
				ff.clearSeen()
				return
			}
		}
		// Validation failed: recycle the candidate and treat this sample
		// as a fresh observation.
		ff.pool = append(ff.pool, ff.cand.base)
		ff.candSet = false
		ff.recOn = false
		rs.ffObserve(h, cur)
		return
	}
	rs.ffObserve(h, rs.ffTakeSnap(idx))
}

// ffObserve files a sample whose fingerprint may already be known: a
// repeat establishes a candidate period to validate, a fresh fingerprint
// joins the search map.
func (rs *runState) ffObserve(h uint64, cur *ffSnap) {
	ff := &rs.ff
	prev, seen := ff.seen[h]
	if !seen {
		ff.seen[h] = cur
		return
	}
	period := cur.idx - prev.idx
	if period <= 0 || cur.now <= prev.now {
		ff.pool = append(ff.pool, cur)
		return
	}
	ff.cand.fp = h
	ff.cand.period = period
	ff.cand.at = cur.idx + period
	ff.cand.stage = 1
	ffComputeDelta(&ff.cand.d, prev, cur)
	ff.cand.base = cur
	ff.candSet = true
	ff.rec = ff.rec[:0]
	ff.recOn = true
}

// ffCapacityRoom returns how many further misses may be credited before
// entering the protected zone of the next L2 capacity turnover — 0 when
// the miss stream is already inside a zone. Turnovers sit where the victim
// population changes: sets finish filling (capacity minus warm lines),
// then every full capacity's worth of inserts after that; each is
// protected by a zone of ffCapacityZoneSets inserts per set on both sides.
func (ff *ffState) ffCapacityRoom(misses, zone int64) int64 {
	warm := ff.warm
	if warm > ff.capLines {
		warm = ff.capLines
	}
	b := ff.capLines - warm // first boundary: sets full
	if b == 0 {
		b = ff.capLines // a fully pre-warmed cache has no fill transition
	}
	for b+zone <= misses {
		b += ff.capLines
	}
	if misses >= b-zone {
		return 0
	}
	return b - zone - misses
}

// ffJump applies k validated periods analytically. k is the largest
// multiplier that keeps every generator inside its uniform region and the
// miss stream clear of the next L2 capacity turnover.
func (rs *runState) ffJump(d *ffDelta) {
	ff := &rs.ff
	k := int64(-1)
	for i := range rs.strands {
		di := d.items[i]
		if di <= 0 {
			continue
		}
		ki := ff.gens[i].UniformRemaining() / di
		if k < 0 || ki < k {
			k = ki
		}
	}
	if d.l2.Misses > 0 {
		zone := ffCapacityZoneSets * ff.capLines / int64(rs.cfg.L2.Ways)
		kc := ff.ffCapacityRoom(rs.l2.Stats().Misses, zone) / d.l2.Misses
		if k < 0 || kc < k {
			k = kc
		}
	}
	if k <= 0 {
		return
	}
	// Replay the skipped interval's cache accesses first, against a
	// checkpoint: the replay is the ground truth for what the interval
	// does to the tag store, and if its counters do not reproduce the
	// validated per-period deltas exactly, the steady state was not
	// stationary over the span — restore the checkpoint and decline the
	// jump (the detector will re-lock on the regime the replay exposed).
	if !rs.ffReplayCache(k, d) {
		return
	}
	dt := d.dt * k

	rs.eng.FastForward(dt, uint64(k)*d.steps)
	ci := 0
	rs.ffCursors(func(c *sim.Cursor) {
		c.Shift(dt)
		c.Account(k*d.cur[ci].busy, k*d.cur[ci].ops)
		ci++
	})
	rs.mc.AddStats(k, d.mc)
	rs.units += k * d.units
	rs.repBytes += k * d.repBytes
	rs.loadStall += k * d.loadStall
	rs.storeStall += k * d.storeStall
	rs.computeStall += k * d.computeStall
	rs.retryStall += k * d.retryStall
	rs.retries += k * d.retries

	for i, s := range rs.strands {
		for j := range s.sb {
			s.sb[j] += dt
		}
		for j := range s.slots {
			s.slots[j] += dt
		}
		if di := d.items[i]; di > 0 {
			ff.gens[i].Skip(k * di)
			s.items += k * di
			// The strand's in-flight item was generated k*di items ago in
			// the new timeline: advance its remaining accesses to the
			// addresses the item at the jumped-to position carries, so the
			// post-jump simulation probes the replay-advanced tag store
			// with true addresses.
			if s.active {
				shift := phys.Addr(k * di * ff.gens[i].ItemStride())
				for a := s.accIdx; a < len(s.item.Acc); a++ {
					s.item.Acc[a].Addr += shift
				}
			}
			// A cached NACK probe refers to the pre-shift line; drop it so
			// the next retry tick re-probes.
			s.retrying = false
		}
	}
	rs.ffRebuildWindow()

	ff.items += k * d.itemsTotal
	ff.cycles += dt
	ff.period = d.dt
	ff.jumps++
	ff.skipped += int64(uint64(k) * d.steps)
	// A committed jump lands in verified steady state: refund the sample
	// budget so a long run of repeating regimes keeps forwarding instead of
	// exhausting the detector after the first few jumps.
	ff.budget = ffSampleBudget
}

// ffRebuildWindow recomputes the run-ahead occupancy window and the
// minimum item count after a jump moved every strand's position at once.
func (rs *runState) ffRebuildWindow() {
	if rs.runAhead <= 0 {
		return
	}
	clear(rs.window)
	w := int64(len(rs.window))
	min := int64(-1)
	for _, s := range rs.strands {
		rs.window[s.items%w]++
		if min < 0 || s.items < min {
			min = s.items
		}
	}
	rs.minItems = min
}

// recAccess appends one executed cache access and its outcome to the
// recording, when the detector is recording a validation period.
func (rs *runState) recAccess(line phys.Addr, write, hit, vdirty bool) {
	if len(rs.ff.rec) <= ffRecLimit {
		rs.ff.rec = append(rs.ff.rec, ffAccess{addr: line, write: write, hit: hit, vdirty: vdirty})
	}
}

// ffReplayCache applies the skipped interval's accesses to the tag store —
// installs, LRU updates, evictions and all counters — by replaying the
// recorded period trace k times with each access advanced by its validated
// stride. Timing is extrapolated elsewhere; cache state is real, so the
// victim population (and every capacity-turnover position) stays exact.
//
// The replay doubles as the final validation: every access must reproduce
// the validated period's outcome — hit flag and victim dirtiness — at its
// exact position, because those outcomes (through memory reads, RFO fills
// and writebacks) are what the extrapolated timing assumed. If any access
// deviates — a capacity regime change or conflict shift the two-period
// validation could not see — the tag store is restored from the
// pre-replay checkpoint and the jump is declined. Declines only cost
// time; a committed jump has proven, access by access, that the skipped
// interval replays the validated period.
func (rs *runState) ffReplayCache(k int64, d *ffDelta) bool {
	ff := &rs.ff
	pre := rs.l2.Stats()
	nb := len(d.l2B)
	if cap(ff.l2BPre) < nb {
		ff.l2BPre = make([]cache.Stats, nb)
	}
	ff.l2BPre = ff.l2BPre[:nb]
	rs.l2.BankStatsInto(ff.l2BPre)
	rs.l2.SnapshotInto(&ff.rollback)
	ok := true
replay:
	for it := int64(1); it <= k; it++ {
		for i := range ff.rec {
			a := &ff.rec[i]
			res := rs.l2.Access(a.addr+phys.Addr(it*ff.strides[i]), a.write)
			if res.Hit != a.hit || res.VictimDirty != a.vdirty {
				ok = false
				break replay
			}
		}
	}
	if ok {
		post := rs.l2.Stats()
		if post.Hits != pre.Hits+k*d.l2.Hits ||
			post.Misses != pre.Misses+k*d.l2.Misses ||
			post.Writebacks != pre.Writebacks+k*d.l2.Writebacks {
			ok = false
		}
	}
	// Fault injection (no-op unless built and armed): veto the validated
	// jump so the rollback below runs under test, proving a declined jump
	// is invisible in the results.
	if ok && faults.FFDecline() {
		ok = false
	}
	if !ok {
		// Restore the tag store and re-impose the pre-replay counters; the
		// run continues as if the jump had never been attempted.
		rs.l2.Restore(&ff.rollback)
		rs.l2.SetStats(ff.l2BPre)
		return false
	}
	return true
}
