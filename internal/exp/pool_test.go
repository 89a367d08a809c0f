package exp

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chip"
)

// slowed wraps an experiment's Run so every point takes at least d, long
// enough for the pool's workers to overlap.
func slowed(e Experiment, d time.Duration) Experiment {
	inner := e.Run
	e.Run = func(cfg chip.Config, p Point, sc *Scratch) (Result, error) {
		time.Sleep(d)
		return inner(cfg, p, sc)
	}
	return e
}

// mustJSON is the outcome's canonical JSON, failing the test on an error.
func mustJSON(t *testing.T, out Outcome, err error) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	b, jerr := out.JSON()
	if jerr != nil {
		t.Fatal(jerr)
	}
	return b
}

// TestPoolStartsBatchesInOrder: while an earlier batch has a point left
// to start, no point of a later batch starts. Each point of the later
// batch reads, under the pool's lock, how many points of the earlier one
// were still unstarted when it began; that count must be zero.
func TestPoolStartsBatchesInOrder(t *testing.T) {
	p := NewPool(2)
	first := p.Submit(context.Background(), slowed(synthetic(nil), 200*time.Microsecond), 0)
	var early atomic.Int32
	second := synthetic(nil)
	inner := second.Run
	second.Run = func(cfg chip.Config, pt Point, sc *Scratch) (Result, error) {
		p.mu.Lock()
		if first.next < len(first.pts) {
			early.Add(1)
		}
		p.mu.Unlock()
		return inner(cfg, pt, sc)
	}
	later := p.Submit(context.Background(), second, 0)
	if _, err := first.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := later.Wait(); err != nil {
		t.Fatal(err)
	}
	if n := early.Load(); n != 0 {
		t.Errorf("%d points of the later batch started while the earlier one had points left to start", n)
	}
}

// TestPoolCapOfOne: a batch capped at one job never has two points in
// flight, though the pool has idle workers.
func TestPoolCapOfOne(t *testing.T) {
	p := NewPool(4)
	var inflight, peak atomic.Int32
	e := synthetic(nil)
	inner := e.Run
	e.Run = func(cfg chip.Config, pt Point, sc *Scratch) (Result, error) {
		n := inflight.Add(1)
		for {
			m := peak.Load()
			if n <= m || peak.CompareAndSwap(m, n) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		inflight.Add(-1)
		return inner(cfg, pt, sc)
	}
	capped := p.Submit(context.Background(), e, 1)
	other := p.Submit(context.Background(), slowed(synthetic(nil), 200*time.Microsecond), 0)
	out, err := capped.Wait()
	if err != nil || len(out.Points) != 16 {
		t.Fatalf("capped batch: %d points, err %v", len(out.Points), err)
	}
	if _, err := other.Wait(); err != nil {
		t.Fatal(err)
	}
	if n := peak.Load(); n != 1 {
		t.Errorf("a batch capped at 1 had %d points in flight", n)
	}
}

// TestPoolCancelOneBatch: cancelling one batch returns its partial,
// Cancelled outcome, and the batch sharing the pool with it completes
// with the results it has on its own.
func TestPoolCancelOneBatch(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	reason := errors.New("client gone")
	doomed := synthetic(nil)
	inner := doomed.Run
	doomed.Run = func(cfg chip.Config, pt Point, sc *Scratch) (Result, error) {
		switch {
		case pt.Index == 0:
			return inner(cfg, pt, sc)
		case pt.Index == 1:
			res, err := inner(cfg, pt, sc)
			cancel(reason) // completes, then cancels its batch
			return res, err
		}
		<-sc.Context().Done()
		return Result{}, &chip.CancelError{Cause: context.Cause(sc.Context()), Latency: time.Millisecond}
	}
	p := NewPool(2)
	cut := p.Submit(ctx, doomed, 0)
	whole := p.Submit(context.Background(), synthetic(nil), 0)

	out, err := cut.Wait()
	if !errors.Is(err, reason) || !out.Cancelled {
		t.Fatalf("cancelled batch: err %v, Cancelled %v; want the cause and a Cancelled outcome", err, out.Cancelled)
	}
	if len(out.Points) == 0 || len(out.Points) >= 16 {
		t.Fatalf("cancelled batch kept %d of 16 points, want a partial outcome", len(out.Points))
	}
	for _, pr := range out.Points {
		if pr.Index > 1 {
			t.Errorf("point %d completed after the cancel", pr.Index)
		}
	}
	alone, err := Runner{Jobs: 1}.Run(synthetic(nil))
	want := mustJSON(t, alone, err)
	shared, err := whole.Wait()
	if got := mustJSON(t, shared, err); !bytes.Equal(got, want) {
		t.Error("the batch sharing the pool with a cancelled one lost results")
	}
}

// TestPoolCancelQueuedBatch: a batch queued behind one that holds every
// worker returns as soon as its context ends, without waiting for a
// worker, and started none of its points.
func TestPoolCancelQueuedBatch(t *testing.T) {
	release := make(chan struct{})
	blocking := synthetic(nil)
	inner := blocking.Run
	blocking.Run = func(cfg chip.Config, pt Point, sc *Scratch) (Result, error) {
		<-release
		return inner(cfg, pt, sc)
	}
	p := NewPool(2)
	busy := p.Submit(context.Background(), blocking, 0)
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Bool
	queued := synthetic(nil)
	queued.Run = func(chip.Config, Point, *Scratch) (Result, error) {
		ran.Store(true)
		return Result{}, nil
	}
	b := p.Submit(ctx, queued, 0)
	cancel()
	out, err := b.Wait()
	if !errors.Is(err, context.Canceled) || !out.Cancelled || len(out.Points) != 0 {
		t.Fatalf("queued batch: %d points, Cancelled %v, err %v", len(out.Points), out.Cancelled, err)
	}
	close(release)
	if out, err := busy.Wait(); err != nil || len(out.Points) != 16 {
		t.Fatalf("busy batch: %d points, err %v", len(out.Points), err)
	}
	if ran.Load() {
		t.Error("a point of the cancelled batch ran")
	}
}

// TestPoolPanicKeepsWorkerServing: on a one-worker pool, a panicking point
// becomes its batch's PointError, and the same worker goes on to finish
// the batch and the one queued behind it.
func TestPoolPanicKeepsWorkerServing(t *testing.T) {
	bad := synthetic(nil)
	inner := bad.Run
	bad.Run = func(cfg chip.Config, pt Point, sc *Scratch) (Result, error) {
		if pt.Index == 3 {
			panic("point exploded")
		}
		return inner(cfg, pt, sc)
	}
	p := NewPool(1)
	first := p.Submit(context.Background(), bad, 0)
	second := p.Submit(context.Background(), synthetic(nil), 0)
	out, err := first.Wait()
	var pe *PointError
	if !errors.As(err, &pe) || pe.Index != 3 || pe.PanicValue != "point exploded" {
		t.Fatalf("panicking point: err %v, want a PointError for point 3 with its panic value", err)
	}
	if len(out.Points) != 15 || out.PointErrors != 1 {
		t.Errorf("batch with a panic: %d points, %d errors; want 15 and 1", len(out.Points), out.PointErrors)
	}
	if out, err := second.Wait(); err != nil || len(out.Points) != 16 {
		t.Errorf("batch after the panic: %d points, err %v", len(out.Points), err)
	}
}

// TestPoolWorkersExitWhenIdle: once the queue drains, every worker has
// exited, so an idle pool (a t2simd server between requests, or one that
// was dropped) holds no goroutine and no Scratch; the next batch starts
// workers again.
func TestPoolWorkersExitWhenIdle(t *testing.T) {
	base := runtime.NumGoroutine()
	p := NewPool(4)
	for round := 0; round < 2; round++ {
		var batches []*Batch
		for range 3 {
			batches = append(batches, p.Submit(context.Background(), slowed(synthetic(nil), 100*time.Microsecond), 0))
		}
		for _, b := range batches {
			if _, err := b.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %d goroutines after the queue drained, %d before", round, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
		p.mu.Lock()
		running, queued := p.running, len(p.queue)
		p.mu.Unlock()
		if running != 0 || queued != 0 {
			t.Fatalf("round %d: drained pool has %d workers and %d queued batches", round, running, queued)
		}
	}
}

// TestPoolRecordsWallTime: a point carries the host time its Run took,
// and Slowest names the longest point.
func TestPoolRecordsWallTime(t *testing.T) {
	e := synthetic(nil)
	inner := e.Run
	e.Run = func(cfg chip.Config, pt Point, sc *Scratch) (Result, error) {
		if pt.Index == 5 {
			time.Sleep(20 * time.Millisecond)
		}
		return inner(cfg, pt, sc)
	}
	out, err := Runner{Jobs: 2}.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if w := out.Points[5].Wall; w < 20*time.Millisecond {
		t.Errorf("point 5 slept 20ms, recorded %v", w)
	}
	if got, want := out.Slowest(), "(series=s0 x=5)"; !strings.HasSuffix(got, want) {
		t.Errorf("Slowest() = %q, want it to end %q", got, want)
	}
}
