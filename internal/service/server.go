package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/exp"
)

// Config sizes the server. The zero value of every field selects a
// sensible default (see withDefaults), so Config{} is a working server.
type Config struct {
	// MaxConcurrent bounds how many sweeps execute simultaneously; further
	// admitted requests queue. Default 2.
	MaxConcurrent int
	// QueueDepth bounds how many requests may wait for an executor beyond
	// the ones executing; past it the server sheds with 429. Default 16.
	QueueDepth int
	// QueueWait bounds how long a request may age in the queue before the
	// server sheds it with 503 — a request that has waited this long is
	// better retried against a less loaded moment than served stale.
	// Default 10s.
	QueueWait time.Duration
	// CacheBytes is the result cache's payload budget. Default 64 MiB.
	CacheBytes int64
	// Jobs is the sweep-pool worker count per executing sweep. Default
	// GOMAXPROCS/MaxConcurrent, at least 1 — sweep-level and request-level
	// parallelism share one core budget instead of oversubscribing.
	Jobs int
	// MaxTimeout is the ceiling (and default) for per-request execution
	// deadlines. Default 5m.
	MaxTimeout time.Duration
	// RetryAfter is the hint stamped into shed responses. Default 1s.
	RetryAfter time.Duration
	// DrainGrace bounds the wait for cancelled in-flight sweeps to
	// actually halt after the drain deadline fires; engine cancellation is
	// cooperative and fast, so this is a backstop. Default 10s.
	DrainGrace time.Duration
	// Registry resolves figure experiments; nil means bench.Figures. Tests
	// substitute synthetic experiments here.
	Registry Registry
}

// withDefaults fills every unset knob.
func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 10 * time.Second
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.Jobs <= 0 {
		c.Jobs = runtime.GOMAXPROCS(0) / c.MaxConcurrent
		if c.Jobs < 1 {
			c.Jobs = 1
		}
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 10 * time.Second
	}
	if c.Registry == nil {
		c.Registry = bench.Figures
	}
	return c
}

// Shedding and lifecycle error classes; statusOf maps them (and the
// cancellation causes) onto the HTTP contract.
var (
	// ErrQueueFull sheds a request because the admission queue is at
	// depth: the client is one of too many and should back off (429).
	ErrQueueFull = errors.New("service: admission queue full")
	// ErrQueueWait sheds a request that aged past the queue-wait budget
	// without reaching an executor: the server is saturated (503).
	ErrQueueWait = errors.New("service: request aged out of the admission queue")
	// ErrDraining sheds work because the server is shutting down (503); it
	// is also the cancellation cause threaded into in-flight sweeps when
	// the drain deadline fires.
	ErrDraining = errors.New("service: server is draining")
)

// Server is the simulation service: one instance owns the resolution
// memo, the result cache, the singleflight group and the admission queue,
// and serves the HTTP surface via Handler. Create with New.
type Server struct {
	cfg    Config
	cache  *Cache
	flight flightGroup
	sem    chan struct{}

	// memo holds every valid request's resolution by its normalized
	// (figure, scale, machine), with the budget of the request that first
	// resolved it; see resolve.
	memoMu sync.Mutex
	memo   map[resolveKey]*Resolved

	waiting  atomic.Int64 // requests inside admit (queued or about to run)
	inflight atomic.Int64 // sweeps holding an executor slot

	draining   atomic.Bool
	drainCh    chan struct{}
	base       context.Context
	baseCancel context.CancelCauseFunc

	m metrics
}

// New builds a server from the config (zero-value fields defaulted).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	base, cancel := context.WithCancelCause(context.Background())
	return &Server{
		cfg:        cfg,
		cache:      NewCache(cfg.CacheBytes),
		sem:        make(chan struct{}, cfg.MaxConcurrent),
		memo:       map[resolveKey]*Resolved{},
		drainCh:    make(chan struct{}),
		base:       base,
		baseCancel: cancel,
	}
}

// Handler returns the HTTP surface:
//
//	POST /v1/sweep  — submit a sweep; the response body is the canonical
//	                  JSON trajectory, byte-identical to cmd/figures -json
//	                  output for the same sweep. X-T2simd-Cache reports
//	                  hit, miss or coalesced; X-T2simd-Fingerprint the key.
//	GET  /healthz   — liveness: 200 while the process runs.
//	GET  /readyz    — readiness: 200 while admitting, 503 while draining.
//	GET  /metrics   — operational counters and gauges, `name value` text.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/sweep", s.handleSweep)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "draining\n")
			return
		}
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		s.renderMetrics(w)
	})
	return mux
}

// statusClientClosedRequest is nginx's 499: the client went away before
// the response; no standard status fits a client-side cancellation.
const statusClientClosedRequest = 499

// handleSweep is the request pipeline: parse → resolve (memo, else
// Resolve+fingerprint) → cache → singleflight(admission → execute → cache
// fill) → respond.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Add(1)
	defer func() {
		// A panic anywhere in the request path is one failed request, not
		// a dead server: convert to 500 and keep serving.
		if rec := recover(); rec != nil {
			s.m.requestPanics.Add(1)
			s.writeError(w, http.StatusInternalServerError, "internal",
				fmt.Sprintf("panic serving request: %v", rec))
		}
	}()
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "validation", "POST a SweepRequest JSON body")
		return
	}
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var req SweepRequest
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "validation", fmt.Sprintf("bad request body: %v", err))
		return
	}
	res, err := s.resolve(req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "validation", err.Error())
		return
	}

	if b, ok := s.cache.Get(res.Key); ok {
		s.serve(w, res.Key, "hit", b)
		return
	}

	b, shared, err := s.flight.Do(r.Context(), res.Key, func() ([]byte, error) {
		return s.admitAndRun(res)
	})
	if err != nil {
		if r.Context().Err() != nil {
			// The client went away; the execution (if any) continues for
			// the cache and any coalesced duplicates.
			s.writeError(w, statusClientClosedRequest, "cancel", "client closed request")
			return
		}
		code, class := statusOf(err)
		s.writeError(w, code, class, err.Error())
		return
	}
	state := "miss"
	if shared {
		state = "coalesced"
		s.m.coalesced.Add(1)
	}
	s.serve(w, res.Key, state, b)
}

// resolveKey is a normalized request's result-relevant part: the fields
// Resolve reads other than the execution budget.
type resolveKey struct{ figure, scale, machine string }

// resolve is Resolve with the request-independent part memoized: the
// profile, options, figure and key of a normalized (figure, scale,
// machine) are resolved once per server, so a repeat skips building the
// registry, expanding the grid and hashing it. The budget (Jobs, Timeout,
// Req.Jobs, Req.TimeoutMS) is still computed per request. Errors and
// panics are never memoized, so the memo holds at most one entry per
// valid triple.
func (s *Server) resolve(req SweepRequest) (*Resolved, error) {
	req = req.normalized()
	k := resolveKey{req.Figure, req.Scale, req.Machine}
	s.memoMu.Lock()
	m, ok := s.memo[k]
	s.memoMu.Unlock()
	if !ok {
		r, err := Resolve(req, s.cfg.Registry, s.cfg.Jobs, s.cfg.MaxTimeout)
		if err != nil {
			return nil, err
		}
		s.memoMu.Lock()
		s.memo[k] = r
		s.memoMu.Unlock()
		return r, nil
	}
	jobs, timeout, err := budget(req, s.cfg.Jobs, s.cfg.MaxTimeout)
	if err != nil {
		return nil, err
	}
	r := *m
	r.Req = req
	r.Jobs, r.Timeout = jobs, timeout
	return &r, nil
}

// admitAndRun is the leader's path: pass admission control, then execute
// the sweep under the request deadline (parented on the server's
// lifecycle context, so a drain deadline cancels it cooperatively) and
// fill the cache. Runs detached from any single client connection.
func (s *Server) admitAndRun(res *Resolved) ([]byte, error) {
	// Re-check the cache: between this request's miss and it becoming the
	// flight leader, a previous leader may have finished and filled the
	// entry — serving it here closes the window where a duplicate would
	// re-execute.
	if b, ok := s.cache.getNoMiss(res.Key); ok {
		return b, nil
	}
	release, err := s.admit()
	if err != nil {
		return nil, err
	}
	defer release()

	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	ctx, cancel := context.WithTimeout(s.base, res.Timeout)
	defer cancel()

	runner := exp.Runner{Jobs: res.Jobs}
	s.m.executions.Add(1)
	out, err := runner.RunContext(ctx, res.Figure.Exp)
	s.m.pointErrors.Add(out.PointErrors)
	if err != nil {
		s.m.execErrors.Add(1)
		if out.Cancelled {
			s.m.cancelled.Add(1)
		}
		// Never serve or cache a partial outcome: classify and fail the
		// request. exp wraps the context cause, so errors.Is sees through.
		return nil, err
	}
	b, err := out.JSON()
	if err != nil {
		s.m.execErrors.Add(1)
		return nil, err
	}
	s.cache.Put(res.Key, b)
	return b, nil
}

// admit is the admission gate: refuse instantly when draining or when
// the queue is at depth, otherwise wait for an executor slot up to the
// queue-wait budget. On success the caller holds a slot and must call
// release.
func (s *Server) admit() (release func(), err error) {
	if s.draining.Load() {
		s.m.shedDraining.Add(1)
		return nil, ErrDraining
	}
	w := s.waiting.Add(1)
	defer s.waiting.Add(-1)
	// Depth counts everyone between arrival and completion: the executing
	// sweeps plus the queue behind them. Past MaxConcurrent+QueueDepth the
	// newcomer is one of too many — shed it instantly instead of letting
	// the queue grow without bound.
	if w+s.inflight.Load() > int64(s.cfg.MaxConcurrent+s.cfg.QueueDepth) {
		s.m.shedQueueFull.Add(1)
		return nil, ErrQueueFull
	}
	t := time.NewTimer(s.cfg.QueueWait)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		if s.draining.Load() {
			// Drain won the race for the slot; give it back.
			<-s.sem
			s.m.shedDraining.Add(1)
			return nil, ErrDraining
		}
		return func() { <-s.sem }, nil
	case <-t.C:
		s.m.shedQueueWait.Add(1)
		return nil, ErrQueueWait
	case <-s.drainCh:
		s.m.shedDraining.Add(1)
		return nil, ErrDraining
	}
}

// statusOf maps an execution or admission error onto the HTTP contract:
// queue-full → 429 (the client should back off), saturation and drain →
// 503 (the server cannot serve right now; both carry Retry-After),
// deadline → 504, anything else → 500. Client-side cancellation (499) is
// handled in the handler, where the client's context is visible.
func statusOf(err error) (code int, class string) {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, "shed"
	case errors.Is(err, ErrQueueWait):
		return http.StatusServiceUnavailable, "shed"
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, "draining"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// serve writes a successful trajectory response.
func (s *Server) serve(w http.ResponseWriter, key, cacheState string, b []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	h.Set("X-T2simd-Cache", cacheState)
	h.Set("X-T2simd-Fingerprint", key)
	w.Write(b)
}

// writeError writes the error contract: a JSON body naming the class
// ("validation", "shed", "draining", "deadline", "cancel", "internal")
// and, on shed/draining responses, a Retry-After hint.
func (s *Server) writeError(w http.ResponseWriter, code int, class, msg string) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		secs := int64((s.cfg.RetryAfter + time.Second - 1) / time.Second)
		h.Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg, "class": class})
}

// Drain is the graceful-shutdown contract: stop admitting (readyz flips
// to 503, queued requests shed, new ones refuse), then wait up to
// deadline for in-flight sweeps to finish on their own; past the
// deadline, cancel them cooperatively through the engines' cancellation
// path and wait out the (bounded) halt latency. It returns true when
// every in-flight sweep finished without being cancelled. Drain is
// idempotent; concurrent calls all wait.
func (s *Server) Drain(deadline time.Duration) (clean bool) {
	if s.draining.CompareAndSwap(false, true) {
		close(s.drainCh)
	}
	if s.awaitIdle(deadline) {
		return true
	}
	s.m.drainCancels.Add(s.inflight.Load())
	s.baseCancel(fmt.Errorf("%w: drain deadline (%s) reached, cancelling in-flight sweeps", ErrDraining, deadline))
	s.awaitIdle(s.cfg.DrainGrace)
	return false
}

// awaitIdle polls until no sweep holds an executor slot, or d elapses.
func (s *Server) awaitIdle(d time.Duration) bool {
	stop := time.Now().Add(d)
	for {
		if s.inflight.Load() == 0 {
			return true
		}
		if time.Now().After(stop) {
			return s.inflight.Load() == 0
		}
		time.Sleep(2 * time.Millisecond)
	}
}
