// Package chip assembles the substrates into a cycle-approximate
// multi-core machine model and runs kernel programs on it. Config is a
// full machine description — topology, latencies, cache and controller
// geometry, address interleave; the named, validated configurations
// (the calibrated UltraSPARC T2 and its controller-scaling variants) live
// in the internal/machine profile registry.
//
// Execution model: every simulated software thread is pinned to one
// hardware strand (distributed equidistantly across the eight cores, as in
// the paper's measurements). A strand repeatedly pulls a work item from its
// trace generator, performs the item's line accesses through crossbar,
// banked L2 and memory controllers, then charges the item's instruction
// demand to the core's shared pipelines, and reschedules itself.
//
//   - Loads stall the strand until the data returns, and a strand has a
//     single outstanding miss (the T2 property that makes many threads per
//     core mandatory).
//   - Stores are posted: the strand deposits them in a store buffer of
//     depth StoreBuffer and proceeds; the L2 performs the read-for-
//     ownership fill asynchronously, consuming controller read bandwidth.
//     A full store buffer stalls the strand until the oldest fill lands.
//   - Dirty evictions become posted writebacks on the controllers'
//     southbound channels. A victim shares its L2 set, and so its bank and
//     controller, with the line that evicts it, so the writeback goes to
//     the controller of the miss.
//
// Aliasing convoys, latency hiding, capacity misses and the bidirectional-
// transfer overhead all emerge from this loop; nothing is special-cased
// per benchmark.
package chip

import (
	"context"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config is the full machine description.
type Config struct {
	Cores          int
	StrandsPerCore int
	GroupsPerCore  int
	ClockHz        float64
	XbarLatency    int64 // crossbar traversal, each direction
	L2HitLatency   int64 // load-to-use latency of an L2 hit
	L2BankService  int64 // bank occupancy per access
	L2             cache.Config
	Mem            mem.Config
	Mapping        phys.Mapping
	MSHRPerStrand  int   // outstanding load misses per strand; the T2 has 1
	StoreBuffer    int   // posted stores in flight per strand; the T2 has 8
	RetryDelay     int64 // crossbar NACK-and-retry round trip when an MC queue is full; >= 1
	// RunAhead bounds how many work items any strand may lead the slowest
	// active strand by. It models the phase coherence of real T2 strands —
	// cycle-by-cycle round-robin issue within a thread group plus finite
	// per-bank miss resources keep concurrent loop iterations tightly
	// aligned, which is precisely why the paper observes that congruent
	// streams make "all threads hit exactly one memory controller at a
	// time" (Sect. 2.1). Setting RunAhead to 0 removes the bound; the
	// aliasing phenomenon then dissolves (see the run-ahead ablation
	// benchmark), which demonstrates that phase coherence is a necessary
	// ingredient of the effect.
	RunAhead int64
}

// MaxThreads returns the hardware strand count.
func (c Config) MaxThreads() int { return c.Cores * c.StrandsPerCore }

// Place returns the (core, group) of software thread t in a team of n,
// distributing threads equidistantly across cores first, then groups —
// the placement used for all measurements in the paper.
func (c Config) Place(t int) (core, group int) {
	core = t % c.Cores
	slot := t / c.Cores
	group = slot % c.GroupsPerCore
	return core, group
}

// Result is the outcome of one program run.
type Result struct {
	Label   string
	Threads int
	Cycles  int64
	Seconds float64

	Units    int64 // work units (elements, lattice sites)
	RepBytes int64 // benchmark-reported bytes

	GBps       float64 // reported bandwidth, as the benchmarks print it
	ActualGBps float64 // true line traffic at the controllers (incl. RFO, writebacks)
	MUPs       float64 // million work units per second

	L2      cache.Stats
	MC      []mem.CtlStats
	MCUtil  []float64 // per-controller busy fraction of the run
	FPUBusy int64     // summed FPU busy cycles

	// Time breakdown, summed over strands (diagnostics).
	LoadStall    int64 // cycles strands spent waiting for loads
	StoreStall   int64 // cycles strands spent blocked on a full store buffer
	ComputeStall int64 // cycles strands spent in/waiting for pipelines
	RetryStall   int64 // cycles strands spent retrying NACKed requests
	Retries      int64 // number of NACK-and-retry round trips
}

// Balance returns min/max controller utilization, the paper's notion of
// "uniform utilization of all four memory controllers". 1 is perfectly
// balanced; values near 0 mean a single controller carried the run.
func (r Result) Balance() float64 {
	if len(r.MCUtil) == 0 {
		return 0
	}
	min, max := r.MCUtil[0], r.MCUtil[0]
	for _, u := range r.MCUtil[1:] {
		if u < min {
			min = u
		}
		if u > max {
			max = u
		}
	}
	if max == 0 {
		return 0
	}
	return min / max
}

// RunStats describes how the last run was computed rather than what it
// simulated, so it is kept beside Result. Its counters are deterministic:
// the same program on the same configuration always yields the same
// RunStats, whatever the host.
type RunStats struct {
	Events uint64 // engine events dispatched
	Probes uint64 // L2 tag lookups made by the run loop

	// The admission gates' share of that work (gate.go).
	GateFires  uint64 // gate events dispatched, won or lost
	Admissions uint64 // waiters a gate let in
	Lookahead  uint64 // NACKs at a lookahead time, each a real retry event
	Released   uint64 // waiters whose line another strand's miss installed
}

// String formats the counters for a CLI header line.
func (s RunStats) String() string {
	return fmt.Sprintf("%d engine events, %d tag probes, %d gate fires, %d admissions, %d lookahead retries, %d waiters released",
		s.Events, s.Probes, s.GateFires, s.Admissions, s.Lookahead, s.Released)
}

// Add accumulates o into s.
func (s *RunStats) Add(o RunStats) {
	s.Events += o.Events
	s.Probes += o.Probes
	s.GateFires += o.GateFires
	s.Admissions += o.Admissions
	s.Lookahead += o.Lookahead
	s.Released += o.Released
}

// Machine runs programs on a Config. A Machine carries no observable state
// between runs — every Run produces the result a freshly built machine
// would — but it retains its substrate allocations (tag arrays, cursors,
// event wheel, strand records), so reusing one Machine across the points
// of a sweep costs a reset instead of megabytes of reconstruction. A
// Machine may be reused freely but not concurrently; sweep harnesses keep
// one per worker (see exp.Scratch).
//
// Every run starts from an L2 filled with dirty lines of an address range
// no kernel uses, as many as the L2 holds, so a single sweep measures the
// steady-state capacity-eviction and writeback behaviour a real benchmark
// reaches after its warm-up iterations. That image is shared by every
// machine of the same L2 geometry (see warmL2).
type Machine struct {
	cfg     Config
	rs      *runState
	warmImg *cache.Image // its geometry's shared warm-up image, looked up on the first run
	last    RunStats
}

// New validates the configuration and returns a machine.
func New(cfg Config) *Machine {
	if cfg.Cores <= 0 || cfg.StrandsPerCore <= 0 || cfg.GroupsPerCore <= 0 {
		panic(fmt.Sprintf("chip: invalid topology %+v", cfg))
	}
	if cfg.Mapping == nil {
		panic("chip: nil mapping")
	}
	if ctls, banks := cfg.Mapping.Controllers(), cfg.Mapping.Banks(); ctls <= 0 || banks%ctls != 0 || bits.OnesCount(uint(banks/ctls)) != 1 {
		// The run loop takes a miss's controller from its bank with a shift.
		panic(fmt.Sprintf("chip: mapping %s: %d banks are not %d controllers times a power of two", cfg.Mapping.Name(), banks, ctls))
	}
	if cfg.MSHRPerStrand <= 0 {
		panic("chip: MSHRPerStrand must be >= 1")
	}
	if cfg.StoreBuffer <= 0 {
		panic("chip: StoreBuffer must be >= 1")
	}
	if cfg.ClockHz <= 0 {
		panic("chip: ClockHz must be positive")
	}
	if cfg.RetryDelay <= 0 {
		// A NACKed strand would re-poll at the same cycle forever.
		panic(fmt.Sprintf("chip: RetryDelay %d must be >= 1", cfg.RetryDelay))
	}
	return &Machine{cfg: cfg}
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// LastRun returns the execution counters of the machine's last run.
func (m *Machine) LastRun() RunStats { return m.last }

type strand struct {
	id     int
	gen    trace.Generator
	core   int
	group  int
	item   trace.Item
	active bool       // item holds unconsumed work
	accIdx int        // next access within item
	items  int64      // completed items (run-ahead accounting)
	parked bool       // blocked on the run-ahead window
	slots  []sim.Time // MSHR completion times (loads)
	sb     []sim.Time // store-buffer ring: completion times of posted fills
	sbPos  int
	// NACK state: the line a NACKed strand waits to issue, its controller
	// and the miss probe it was NACKed with. A strand that its gate admits
	// is marked admitted and commits that probe without a second lookup;
	// any other dispatch re-probes the line.
	rCtl     int
	rLine    phys.Addr
	rProbe   cache.Probe
	admitted bool
	// A waiter re-polls every RetryDelay cycles from waitFrom on, at the
	// label its polls carry, but only virtually: it sits in its
	// controller's gate (gate.go), and its lost polls are counted when it
	// leaves. waitFrom is -1 outside a wait; wPrev and wNext link the
	// waiters of one phase, lPrev and lNext those of one line slot.
	waitFrom     sim.Time
	label        sim.Label
	phase        int
	wPrev, wNext *strand
	lPrev, lNext *strand
}

// The typed event kinds of the run loop. evStep resumes strand arg: every
// wakeup — load return, store-buffer drain, lookahead NACK retry, compute
// completion, unpark, the poll of a woken waiter — is this event. evGate
// fires the admission gate of controller arg. Both are allocation-free to
// schedule (see the sim package's engine contract).
const (
	evStep sim.Kind = 1
	evGate sim.Kind = 2
)

type runState struct {
	cfg      Config
	ctlShift uint // a bank's controller is bank >> ctlShift (phys.ControllerOf)
	eng      sim.Engine
	l2       *cache.Banked
	mc       *mem.System
	cores    *cpu.Cores
	banks    []sim.Cursor
	gates    []gate
	waiting  int // strands waiting in gates
	strands  []*strand
	pool     []*strand // grown to the largest team seen, reused across runs
	handler  sim.Handler
	units    int64
	repBytes int64
	finish   sim.Time
	running  int
	work     RunStats // every counter but Events, which the engine keeps

	loadStall    int64
	storeStall   int64
	computeStall int64
	retryStall   int64
	retries      int64

	// Run-ahead window state. Because item counts only increase by one and
	// the window bounds every active strand's count to
	// [minItems, minItems+runAhead], a ring of runAhead+1 frequency buckets
	// (indexed by count mod window size) tracks the team minimum in O(1)
	// per completion instead of an O(threads) rescan.
	runAhead int64
	window   []int32 // window[v % len]: active strands with exactly v items
	active   int     // strands not yet retired
	minItems int64   // min over active strands; -1 once all retired
	parked   []*strand
}

// bumpItems records an item completion and wakes parked strands when the
// team minimum advances.
func (rs *runState) bumpItems(s *strand) {
	old := s.items
	s.items++
	if rs.runAhead <= 0 {
		return
	}
	w := int64(len(rs.window))
	rs.window[old%w]--
	rs.window[s.items%w]++
	if old == rs.minItems && rs.window[old%w] == 0 {
		rs.advanceMin()
	}
}

// retire removes a finished strand from run-ahead accounting.
func (rs *runState) retire(s *strand) {
	if rs.runAhead <= 0 {
		return
	}
	rs.window[s.items%int64(len(rs.window))]--
	rs.active--
	if s.items == rs.minItems {
		rs.advanceMin()
	}
}

// advanceMin slides minItems forward to the next occupied bucket (at most
// runAhead steps away) and wakes parked strands on any change.
func (rs *runState) advanceMin() {
	if rs.active == 0 {
		if rs.minItems != -1 {
			rs.minItems = -1
			rs.wakeParked()
		}
		return
	}
	w := int64(len(rs.window))
	min := rs.minItems
	for rs.window[min%w] == 0 {
		min++
	}
	if min != rs.minItems {
		rs.minItems = min
		rs.wakeParked()
	}
}

func (rs *runState) wakeParked() {
	if len(rs.parked) == 0 {
		return
	}
	ps := rs.parked
	rs.parked = rs.parked[:0]
	now := rs.eng.Now()
	for _, p := range ps {
		p.parked = false
		rs.eng.Schedule(now, evStep, int32(p.id))
	}
}

// overWindow reports whether the strand must park before starting another
// item because it is too far ahead of the slowest active strand.
func (rs *runState) overWindow(s *strand) bool {
	return rs.runAhead > 0 && rs.minItems >= 0 && s.items-rs.minItems >= rs.runAhead
}

// load performs one demand line read beginning at time t and returns the
// time the data is back at the strand. The probe carries the single tag
// lookup (and bank computation) already performed by step's admission
// check, and ctl the controller of its bank for a miss, which also takes
// the dirty victim's writeback; Commit finishes the access without
// rescanning.
func (rs *runState) load(t sim.Time, line phys.Addr, p cache.Probe, ctl int) sim.Time {
	arrive := t + rs.cfg.XbarLatency
	bankStart, bankDone := rs.banks[p.Bank()].Acquire(arrive, rs.cfg.L2BankService)
	res := rs.l2.Commit(p, false)
	var dataAt sim.Time
	if res.Hit {
		dataAt = bankStart + rs.cfg.L2HitLatency
		if dataAt < bankDone {
			dataAt = bankDone
		}
	} else {
		dataAt = rs.mc.Read(bankDone, ctl)
		if res.VictimDirty {
			rs.mc.Write(bankDone, ctl)
		}
		if rs.waiting > 0 {
			rs.installed(line, ctl)
		}
	}
	return dataAt + rs.cfg.XbarLatency
}

// store posts one line store beginning at time t. The strand only waits
// for L2 bank occupancy (and, via the caller, for store-buffer space); on a
// miss the read-for-ownership fill proceeds asynchronously. The returned
// times are (strand-visible completion, fill completion).
func (rs *runState) store(t sim.Time, line phys.Addr, p cache.Probe, ctl int) (proceed, fill sim.Time) {
	arrive := t + rs.cfg.XbarLatency
	_, bankDone := rs.banks[p.Bank()].Acquire(arrive, rs.cfg.L2BankService)
	res := rs.l2.Commit(p, true)
	fill = bankDone
	if !res.Hit {
		fill = rs.mc.Read(bankDone, ctl)
		if res.VictimDirty {
			rs.mc.Write(bankDone, ctl)
		}
		if rs.waiting > 0 {
			rs.installed(line, ctl)
		}
	}
	return bankDone, fill
}

// step advances one strand. It is re-entered by the event engine each time
// the strand unblocks. All cursor acquisitions happen at (or within a few
// cycles of) the current event time, which keeps the FCFS cursors exact:
// every blocking wait — a load miss, a full store buffer, a busy MSHR set —
// returns to the engine so that other strands' requests interleave in true
// time order.
func (rs *runState) step(s *strand) {
	t := rs.eng.Now()
	rs.settle(s, t)
	for {
		if !s.active {
			if rs.overWindow(s) {
				s.parked = true
				rs.parked = append(rs.parked, s)
				return
			}
			s.item.Reset()
			if !s.gen.Next(&s.item) {
				rs.running--
				rs.retire(s)
				if t > rs.finish {
					rs.finish = t
				}
				return
			}
			s.active = true
			s.accIdx = 0
		}
		for s.accIdx < len(s.item.Acc) {
			a := s.item.Acc[s.accIdx]
			line := phys.LineOf(a.Addr)
			// One tag-array probe serves both the NACK admission check and,
			// via Commit inside load/store, the access itself. A strand its
			// gate has just admitted reuses the miss probe it was NACKed
			// with (see fireGate), and the controller of a miss's bank
			// serves the read, its writeback and the waiter bookkeeping.
			var probe cache.Probe
			var ctl int
			if s.admitted {
				s.admitted = false
				probe, ctl = s.rProbe, s.rCtl
			} else {
				probe = rs.l2.ProbeLine(line)
				rs.work.Probes++
				if !probe.Hit() {
					ctl = probe.Bank() >> rs.ctlShift
					if rs.mc.Full(t, ctl) {
						s.rCtl, s.rLine, s.rProbe = ctl, line, probe
						if t == rs.eng.Now() {
							rs.wait(s)
							return
						}
						// NACKed at a lookahead time after a posted store:
						// the first retry is not one period after the
						// current event, so it stays a real event.
						rs.retryStall += rs.cfg.RetryDelay
						rs.retries++
						rs.work.Lookahead++
						rs.eng.Schedule(t+rs.cfg.RetryDelay, evStep, int32(s.id))
						return
					}
				}
			}
			if a.Write {
				// Store-buffer backpressure: block until the oldest posted
				// fill lands if all entries are in flight.
				if oldest := s.sb[s.sbPos]; oldest > t {
					rs.storeStall += oldest - t
					rs.eng.Schedule(oldest, evStep, int32(s.id))
					return
				}
				proceed, fill := rs.store(t, line, probe, ctl)
				s.sb[s.sbPos] = fill
				s.sbPos = (s.sbPos + 1) % len(s.sb)
				s.accIdx++
				t = proceed // bounded lookahead: xbar + bank service
				continue
			}
			if len(s.slots) <= 1 {
				// Single outstanding miss: block until the data returns.
				done := rs.load(t, line, probe, ctl)
				s.accIdx++
				rs.loadStall += done - t
				rs.eng.Schedule(done, evStep, int32(s.id))
				return
			}
			// MSHR ablation: issue into a free slot, or block until the
			// earliest slot frees.
			best := 0
			for i := 1; i < len(s.slots); i++ {
				if s.slots[i] < s.slots[best] {
					best = i
				}
			}
			if s.slots[best] > t {
				rs.loadStall += s.slots[best] - t
				rs.eng.Schedule(s.slots[best], evStep, int32(s.id))
				return
			}
			s.slots[best] = rs.load(t, line, probe, ctl)
			s.accIdx++
		}
		if len(s.slots) > 1 {
			// Drain outstanding loads before the dependent compute.
			var max sim.Time
			for i := range s.slots {
				if s.slots[i] > max {
					max = s.slots[i]
				}
			}
			if max > t {
				rs.loadStall += max - t
				rs.eng.Schedule(max, evStep, int32(s.id))
				return
			}
		}
		tc := rs.cores.Compute(t, s.core, s.group, s.item.Demand)
		rs.computeStall += tc - t
		rs.units += s.item.Units
		rs.repBytes += s.item.RepBytes
		rs.bumpItems(s)
		s.active = false
		if tc > t {
			rs.eng.Schedule(tc, evStep, int32(s.id))
			return
		}
	}
}

// validateTeam checks the program's team size against the machine topology
// up front: Place wraps thread indices modulo the core count, so an
// oversized team would otherwise be silently co-scheduled onto already-
// occupied strands and quietly misreport every per-strand stall and
// placement result.
func (m *Machine) validateTeam(prog *trace.Program) {
	n := len(prog.Gens)
	if n == 0 {
		panic("chip: program with no threads")
	}
	if max := m.cfg.MaxThreads(); n > max {
		panic(fmt.Sprintf("chip: team of %d threads exceeds the machine's %d hardware strands (%d cores x %d strands); shrink the team or pick a larger machine profile",
			n, max, m.cfg.Cores, m.cfg.StrandsPerCore))
	}
}

// warmKey is an L2 geometry: the warmed tag store depends on nothing else.
// Mappings are comparable values, as they are in machine keys elsewhere.
type warmKey struct {
	l2 cache.Config
	m  phys.Mapping
}

// warmImage is one geometry's warmed L2, built once and then read-only.
type warmImage struct {
	once sync.Once
	img  *cache.Image
}

// warmImages holds a *warmImage per warmKey for the whole process, about
// 393 KB per geometry.
var warmImages sync.Map

// warmL2 fills l2 with dirty lines of an address range no kernel uses, as
// many as it holds, so the first sweep already evicts and writes back at
// the steady-state rate. The prefill runs once per geometry per process,
// in the first machine of that geometry; every run of every machine then
// restores the shared image by memcpy.
func (m *Machine) warmL2(l2 *cache.Banked) {
	if m.warmImg == nil {
		v, _ := warmImages.LoadOrStore(warmKey{m.cfg.L2, m.cfg.Mapping}, new(warmImage))
		w := v.(*warmImage)
		w.once.Do(func() {
			const warmBase phys.Addr = 1 << 40
			l2.PrefillSequential(warmBase, m.cfg.L2.SizeBytes/phys.LineSize, true)
			l2.ResetStats()
			w.img = l2.Snapshot()
		})
		m.warmImg = w.img
	}
	l2.Restore(m.warmImg)
}

// Run executes prog to completion and reports aggregate performance. It is
// RunCtx without a cancellation source; since a background run cannot be
// cancelled, it cannot fail.
func (m *Machine) Run(prog *trace.Program) Result {
	res, err := m.RunCtx(context.Background(), prog)
	if err != nil {
		// Unreachable: a background context is never cancelled, so the
		// engine's stop flag is never armed and the run cannot abort.
		panic(fmt.Sprintf("chip: uncancellable Run aborted: %v", err))
	}
	return res
}

// RunCtx executes prog to completion, or until ctx is cancelled. On
// cancellation it returns the partial Result accumulated so far together
// with a *CancelError carrying the cancellation cause and the observed
// cancel→halt latency; the partial Result is accounting-grade telemetry
// only and must never enter a trajectory. A context that can never be
// cancelled costs nothing: the engine's stop flag stays nil and the run
// takes the same path as Run.
func (m *Machine) RunCtx(ctx context.Context, prog *trace.Program) (Result, error) {
	m.validateTeam(prog)
	n := len(prog.Gens)
	rs := m.rs
	if rs == nil {
		rs = &runState{
			cfg:      m.cfg,
			ctlShift: uint(bits.TrailingZeros(uint(m.cfg.Mapping.Banks() / m.cfg.Mapping.Controllers()))),
			l2:       cache.New(m.cfg.L2, m.cfg.Mapping),
			mc:       mem.New(m.cfg.Mem, m.cfg.Mapping.Controllers()),
			cores:    cpu.New(cpu.Config{Cores: m.cfg.Cores, GroupsPerCore: m.cfg.GroupsPerCore, LSUPipes: 2}),
			banks:    make([]sim.Cursor, m.cfg.Mapping.Banks()),
			runAhead: m.cfg.RunAhead,
		}
		if rs.runAhead > 0 {
			rs.window = make([]int32, rs.runAhead+1)
		}
		rs.handler = func(k sim.Kind, arg int32) {
			if k == evGate {
				rs.fireGate(int(arg))
				return
			}
			rs.step(rs.strands[arg])
		}
		m.rs = rs
	} else {
		// The L2 needs no reset: warmL2 below overwrites every set record
		// and counter.
		rs.eng.Reset()
		rs.mc.Reset()
		rs.cores.Reset()
		for i := range rs.banks {
			rs.banks[i].Reset()
		}
		clear(rs.window)
		rs.parked = rs.parked[:0]
		for i := range rs.gates {
			rs.gates[i].reset()
		}
		rs.waiting = 0
		rs.units, rs.repBytes, rs.finish = 0, 0, 0
		rs.loadStall, rs.storeStall, rs.computeStall = 0, 0, 0
		rs.retryStall, rs.retries, rs.work = 0, 0, RunStats{}
		rs.active, rs.minItems = 0, 0
	}
	rs.running = n
	if rs.runAhead > 0 {
		rs.window[0] = int32(n) // every strand starts at 0 completed items
		rs.active = n
	}
	m.warmL2(rs.l2)
	for len(rs.pool) < n {
		s := &strand{id: len(rs.pool), sb: make([]sim.Time, m.cfg.StoreBuffer)}
		if m.cfg.MSHRPerStrand > 1 {
			s.slots = make([]sim.Time, m.cfg.MSHRPerStrand)
		}
		rs.pool = append(rs.pool, s)
	}
	rs.strands = rs.pool[:n]
	rs.eng.SetHandler(rs.handler)
	rs.eng.SetPeriod(m.cfg.RetryDelay)
	for t := 0; t < n; t++ {
		s := rs.strands[t]
		s.gen = prog.Gens[t]
		s.core, s.group = m.cfg.Place(t)
		s.item.Reset()
		s.active, s.accIdx, s.items, s.parked = false, 0, 0, false
		s.waitFrom, s.wPrev, s.wNext, s.lPrev, s.lNext, s.admitted = -1, nil, nil, nil, nil, false
		clear(s.sb)
		s.sbPos = 0
		clear(s.slots)
		rs.eng.Schedule(0, evStep, int32(t))
	}
	cw := armCancel(ctx, &rs.eng)
	rs.eng.Run()
	var cancelErr *CancelError
	if rs.eng.Interrupted() {
		cancelErr = cw.abortError(ctx)
		// The abort point is wherever the event loop happened to be; count
		// the clock actually reached so the partial telemetry has a horizon,
		// and count every retry an open wait has begun by then, as if the
		// waiter left at its first poll after now.
		now := rs.eng.Now()
		if now > rs.finish {
			rs.finish = now
		}
		for _, s := range rs.strands {
			if s.waitFrom >= 0 {
				d := rs.cfg.RetryDelay
				rs.settle(s, now-(now-s.waitFrom)%d+d)
			}
		}
	}
	cw.done()
	m.last = rs.work
	m.last.Events = rs.eng.Steps()
	if cancelErr == nil && rs.running != 0 {
		panic("chip: deadlock — strands left running with no events")
	}

	cycles := rs.finish
	if cycles == 0 {
		cycles = 1
	}
	secs := float64(cycles) / m.cfg.ClockHz
	mcStats := rs.mc.Stats()
	var lines int64
	for _, cs := range mcStats {
		lines += cs.Lines()
	}
	res := Result{
		Label:    prog.Label,
		Threads:  n,
		Cycles:   cycles,
		Seconds:  secs,
		Units:    rs.units,
		RepBytes: rs.repBytes,
		L2:       rs.l2.Stats(),
		MC:       mcStats,
		MCUtil:   rs.mc.Utilization(cycles),
		FPUBusy:  rs.cores.TotalFPUBusy(),

		LoadStall:    rs.loadStall,
		StoreStall:   rs.storeStall,
		ComputeStall: rs.computeStall,
		RetryStall:   rs.retryStall,
		Retries:      rs.retries,
	}
	res.GBps = float64(rs.repBytes) / secs / 1e9
	res.ActualGBps = float64(lines*phys.LineSize) / secs / 1e9
	res.MUPs = float64(rs.units) / secs / 1e6
	if cancelErr != nil {
		return res, cancelErr
	}
	return res, nil
}
