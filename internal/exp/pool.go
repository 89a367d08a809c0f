package exp

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Pool runs the points of submitted sweeps on at most Workers goroutines.
// Sweeps (batches) queue in submission order, and a free worker always
// takes the next grid index of the oldest batch that still has points to
// start and is under its in-flight cap. So an earlier sweep finishes
// first, and a later one fills the workers the earlier one leaves idle
// instead of waiting for it to end.
//
// Workers start on demand and exit as soon as no batch has a point they
// may start, so an idle pool holds no goroutine and no Scratch: dropping
// a Pool needs no shutdown. The queue holds batches, not per-point work
// items, so dispatching a point allocates nothing.
//
// Results are collected by point index, so neither the worker count nor
// the other batches sharing the pool change a result byte.
type Pool struct {
	workers int

	mu      sync.Mutex
	queue   []*Batch // batches with points left to start, oldest first
	running int      // live worker goroutines
}

// NewPool returns a pool of at most jobs workers; jobs <= 0 means
// GOMAXPROCS.
func NewPool(jobs int) *Pool {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: jobs}
}

// Workers returns the pool's worker limit.
func (p *Pool) Workers() int { return p.workers }

// Batch is one sweep submitted to a Pool.
type Batch struct {
	pool     *Pool
	ctx      context.Context
	e        Experiment
	pts      []Point
	cap      int           // most points in flight at once
	err      error         // the batch cannot run at all
	finished chan struct{} // closed when the batch will change no more

	// Guarded by pool.mu until finished is closed, read-only after.
	next     int  // next grid index to start
	inflight int  // points started and not yet recorded
	stopped  bool // the context ended: start nothing more
	closed   bool // finished is closed
	points   []PointResult
	ok       []bool // points[i] holds a result
	errs     []*PointError
}

// Submit queues every kept point of e behind the batches already
// submitted and returns at once. jobs caps how many of its points run at
// a time; jobs <= 0, or above the pool's limit, means the limit. The
// context reaches every point through Scratch.Context; once it ends, no
// further point of the batch starts.
func (p *Pool) Submit(ctx context.Context, e Experiment, jobs int) *Batch {
	b := &Batch{pool: p, ctx: ctx, e: e, finished: make(chan struct{})}
	if e.Run == nil {
		b.err = fmt.Errorf("exp: experiment %q has no Run closure", e.Name)
		b.closed = true
		close(b.finished)
		return b
	}
	b.pts = e.Points()
	b.cap = p.workers
	if jobs > 0 && jobs < b.cap {
		b.cap = jobs
	}
	b.points = make([]PointResult, len(b.pts))
	b.ok = make([]bool, len(b.pts))

	p.mu.Lock()
	b.stopped = ctx.Err() != nil
	b.settle()
	spawn := 0
	if !b.closed {
		p.queue = append(p.queue, b)
		spawn = min(p.workers-p.running, b.cap, len(b.pts))
		p.running += spawn
	}
	p.mu.Unlock()
	for range spawn {
		go p.work()
	}
	return b
}

// work is one worker: it serves points until none may start, then exits.
// Its Scratch lives as long as it does and is shared by the points of
// every batch it serves (a cached machine resets completely between
// runs).
func (p *Pool) work() {
	sc := &Scratch{}
	p.mu.Lock()
	for {
		b, i := p.take()
		if b == nil {
			p.running--
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
		sc.Ctx = b.ctx
		start := time.Now()
		res, perr := runPoint(b.e, b.pts[i], sc)
		wall := time.Since(start)
		p.mu.Lock()
		b.inflight--
		if perr != nil {
			b.errs = append(b.errs, perr)
		} else {
			b.points[i] = PointResult{Index: i, Params: b.pts[i].Params, Result: res, Wall: wall}
			b.ok[i] = true
		}
		b.settle()
	}
}

// take claims the next point to run: the oldest queued batch under its
// cap gives its next grid index. A batch leaves the queue when it gives
// its last index, or here once its context has ended. It returns a nil
// batch when no point may start. The caller holds p.mu.
func (p *Pool) take() (*Batch, int) {
	for k := 0; k < len(p.queue); {
		b := p.queue[k]
		if b.ctx.Err() != nil {
			b.stopped = true
		}
		if b.stopped {
			p.dequeue(k)
			b.settle()
			continue
		}
		if b.inflight == b.cap {
			k++
			continue
		}
		i := b.next
		b.next++
		b.inflight++
		if b.next == len(b.pts) {
			p.dequeue(k)
		}
		return b, i
	}
	return nil, 0
}

// dequeue removes the queue entry at k, keeping the order of the rest.
func (p *Pool) dequeue(k int) {
	copy(p.queue[k:], p.queue[k+1:])
	p.queue[len(p.queue)-1] = nil
	p.queue = p.queue[:len(p.queue)-1]
}

// settle closes finished once the batch will start nothing more and has
// nothing in flight. The caller holds the pool's mutex.
func (b *Batch) settle() {
	if !b.closed && b.inflight == 0 && (b.stopped || b.next == len(b.pts)) {
		b.closed = true
		close(b.finished)
	}
}

// stop ends a batch whose context is done: no further point starts, and
// the batch finishes when its in-flight points have.
func (b *Batch) stop() {
	p := b.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	b.stopped = true
	for k, q := range p.queue {
		if q == b {
			p.dequeue(k)
			break
		}
	}
	b.settle()
}

// Wait blocks until the batch has finished and returns its outcome in
// grid order; call it once. A panic inside the Run closure is captured as
// a PointError rather than tearing down the pool. If any points fail, the
// returned error wraps the lowest-indexed PointError (so error messages
// are deterministic) and the outcome holds only the points that
// succeeded.
//
// If the batch's context ends first, its unstarted points are abandoned
// at once, even while older batches hold every worker, and the partial
// outcome (the points that completed, at their original indices) is
// returned marked Cancelled, with an error wrapping the cancellation
// cause.
func (b *Batch) Wait() (Outcome, error) {
	if b.err != nil {
		return Outcome{}, b.err
	}
	select {
	case <-b.finished:
	case <-b.ctx.Done():
		b.stop()
		<-b.finished
	}
	e := b.e
	out := Outcome{Experiment: e.Name, Doc: e.Doc, Machine: e.Machine, Points: b.points[:0]}
	for i, pr := range b.points {
		if b.ok[i] {
			out.Points = append(out.Points, pr)
		}
	}
	if len(out.Points) == 0 {
		out.Points = nil // "points": null, as for an outcome that never ran
	}
	out.PointErrors = int64(len(b.errs))
	if err := b.ctx.Err(); err != nil {
		out.Cancelled = true
		out.noteCancelLatency(b.errs)
		return out, fmt.Errorf("exp: %s: cancelled after %d of %d points: %w",
			e.Name, len(out.Points), len(b.pts), cause(b.ctx))
	}
	if len(b.errs) > 0 {
		out.noteCancelLatency(b.errs)
		sort.Slice(b.errs, func(i, j int) bool { return b.errs[i].Index < b.errs[j].Index })
		return out, fmt.Errorf("%w (%d of %d points failed)", b.errs[0], len(b.errs), len(b.pts))
	}
	return out, nil
}
