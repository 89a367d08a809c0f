package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/chip"
	"repro/internal/exp"
	"repro/internal/machine"
)

// unitRegistry builds a registry of n synthetic one-point figures
// ("unit0".."unitN-1") sharing one Run closure — distinct fingerprints
// (distinct figure names) backed by identical, test-controlled behavior.
// Distinct figures are what admission tests need: identical requests
// would coalesce in the singleflight group and never reach the queue.
func unitRegistry(n int, run func(chip.Config, exp.Point, *exp.Scratch) (exp.Result, error)) Registry {
	return func(o bench.Options) []bench.Figure {
		figs := make([]bench.Figure, n)
		for i := range figs {
			name := fmt.Sprintf("unit%d", i)
			figs[i] = bench.Figure{
				Name: name,
				Exp: exp.Experiment{
					Name: name,
					Grid: exp.Grid{exp.Ints("k", 1)},
					Run:  run,
				},
			}
		}
		return figs
	}
}

// postSweep drives one request through the handler. A nil ctx means the
// client stays connected for the duration.
func postSweep(h http.Handler, ctx context.Context, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body))
	if ctx != nil {
		req = req.WithContext(ctx)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeByteIdentityAndCacheHit is the headline contract: the daemon's
// response body for a sweep is byte-identical to the canonical JSON
// trajectory cmd/figures -json writes for the same sweep (both are
// exp.Outcome.JSON of the same resolved experiment), and a repeated
// request is a cache hit serving the very same bytes without re-executing.
func TestServeByteIdentityAndCacheHit(t *testing.T) {
	s := New(Config{Jobs: 2})
	h := s.Handler()

	// The reference trajectory, computed the way cmd/figures does.
	prof, err := machine.Get(machine.DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	o := bench.Small().WithProfile(prof)
	var fig *bench.Figure
	for _, f := range bench.Figures(o) {
		if f.Name == "fig5" {
			fig = &f
			break
		}
	}
	if fig == nil {
		t.Fatal("fig5 missing from registry")
	}
	out, err := exp.Runner{Jobs: 2}.Run(fig.Exp)
	if err != nil {
		t.Fatal(err)
	}
	want, err := out.JSON()
	if err != nil {
		t.Fatal(err)
	}

	body := `{"figure":"fig5","scale":"small"}`
	first := postSweep(h, nil, body)
	if first.Code != http.StatusOK {
		t.Fatalf("first request: %d %s", first.Code, first.Body.String())
	}
	if got := first.Header().Get("X-T2simd-Cache"); got != "miss" {
		t.Errorf("first request cache state %q, want miss", got)
	}
	if !bytes.Equal(first.Body.Bytes(), want) {
		t.Errorf("daemon response differs from cmd/figures trajectory (%d vs %d bytes)",
			first.Body.Len(), len(want))
	}

	second := postSweep(h, nil, body)
	if second.Code != http.StatusOK {
		t.Fatalf("second request: %d %s", second.Code, second.Body.String())
	}
	if got := second.Header().Get("X-T2simd-Cache"); got != "hit" {
		t.Errorf("second request cache state %q, want hit", got)
	}
	if !bytes.Equal(second.Body.Bytes(), first.Body.Bytes()) {
		t.Error("cache hit served different bytes than the original execution")
	}
	if got := s.m.executions.Load(); got != 1 {
		t.Errorf("executions = %d, want 1 (second request must not re-run)", got)
	}
	if first.Header().Get("X-T2simd-Fingerprint") != second.Header().Get("X-T2simd-Fingerprint") {
		t.Error("identical requests reported different fingerprints")
	}
}

// TestSingleflightCoalesces: concurrent identical requests must share one
// execution — the rest ride on the leader's result and every response is
// byte-identical. Run under -race this also proves the coalescing path is
// data-race free.
func TestSingleflightCoalesces(t *testing.T) {
	release := make(chan struct{})
	var runs atomic.Int64
	s := New(Config{
		MaxConcurrent: 2,
		Registry: unitRegistry(1, func(_ chip.Config, p exp.Point, sc *exp.Scratch) (exp.Result, error) {
			runs.Add(1)
			select {
			case <-release:
			case <-sc.Context().Done():
				return exp.Result{}, sc.Context().Err()
			}
			return exp.Result{Series: "s", X: float64(p.Int("k")), Y: 1}, nil
		}),
	})
	h := s.Handler()

	const clients = 8
	var wg sync.WaitGroup
	codes := make([]int, clients)
	bodies := make([][]byte, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rr := postSweep(h, nil, `{"figure":"unit0"}`)
			codes[i] = rr.Code
			bodies[i] = rr.Body.Bytes()
		}(i)
	}
	// Hold the leader until every client has arrived, so the duplicates
	// demonstrably overlap the execution.
	waitFor(t, "all clients to arrive", func() bool { return s.m.requests.Load() == clients })
	waitFor(t, "leader to start executing", func() bool { return runs.Load() >= 1 })
	close(release)
	wg.Wait()

	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d: status %d", i, codes[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("client %d received different bytes", i)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("run closure executed %d times, want 1", got)
	}
	if got := s.m.executions.Load(); got != 1 {
		t.Errorf("executions = %d, want 1", got)
	}
}

// TestAdmissionShedsQueueFull: with one executor busy and the one queue
// slot taken, the next distinct request must be refused instantly with
// 429 + Retry-After — never silently queued without bound.
func TestAdmissionShedsQueueFull(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{
		MaxConcurrent: 1,
		QueueDepth:    1,
		QueueWait:     time.Minute,
		Registry: unitRegistry(3, func(_ chip.Config, p exp.Point, sc *exp.Scratch) (exp.Result, error) {
			select {
			case <-release:
			case <-sc.Context().Done():
				return exp.Result{}, sc.Context().Err()
			}
			return exp.Result{Series: "s", X: 1, Y: 1}, nil
		}),
	})
	h := s.Handler()

	results := make(chan *httptest.ResponseRecorder, 2)
	go func() { results <- postSweep(h, nil, `{"figure":"unit0"}`) }()
	waitFor(t, "unit0 to hold the executor", func() bool { return s.inflight.Load() == 1 })
	go func() { results <- postSweep(h, nil, `{"figure":"unit1"}`) }()
	waitFor(t, "unit1 to queue", func() bool { return s.waiting.Load() == 1 })

	shed := postSweep(h, nil, `{"figure":"unit2"}`)
	if shed.Code != http.StatusTooManyRequests {
		t.Fatalf("third request: %d %s, want 429", shed.Code, shed.Body.String())
	}
	if shed.Header().Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	var e map[string]string
	if err := json.Unmarshal(shed.Body.Bytes(), &e); err != nil || e["class"] != "shed" {
		t.Errorf("429 body %s, want class shed", shed.Body.String())
	}
	if got := s.m.shedQueueFull.Load(); got != 1 {
		t.Errorf("shedQueueFull = %d, want 1", got)
	}

	close(release)
	for i := 0; i < 2; i++ {
		rr := <-results
		if rr.Code != http.StatusOK {
			t.Errorf("admitted request finished %d %s, want 200", rr.Code, rr.Body.String())
		}
	}
}

// TestAdmissionShedsQueueWait: a request that ages past the queue-wait
// budget without reaching an executor is shed with 503 + Retry-After.
func TestAdmissionShedsQueueWait(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{
		MaxConcurrent: 1,
		QueueDepth:    4,
		QueueWait:     30 * time.Millisecond,
		Registry: unitRegistry(2, func(_ chip.Config, p exp.Point, sc *exp.Scratch) (exp.Result, error) {
			select {
			case <-release:
			case <-sc.Context().Done():
				return exp.Result{}, sc.Context().Err()
			}
			return exp.Result{Series: "s", X: 1, Y: 1}, nil
		}),
	})
	h := s.Handler()

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- postSweep(h, nil, `{"figure":"unit0"}`) }()
	waitFor(t, "unit0 to hold the executor", func() bool { return s.inflight.Load() == 1 })

	aged := postSweep(h, nil, `{"figure":"unit1"}`)
	if aged.Code != http.StatusServiceUnavailable {
		t.Fatalf("aged request: %d %s, want 503", aged.Code, aged.Body.String())
	}
	if aged.Header().Get("Retry-After") == "" {
		t.Error("503 response missing Retry-After")
	}
	if got := s.m.shedQueueWait.Load(); got != 1 {
		t.Errorf("shedQueueWait = %d, want 1", got)
	}

	close(release)
	if rr := <-done; rr.Code != http.StatusOK {
		t.Errorf("running request finished %d, want 200", rr.Code)
	}
}

// TestRequestDeadlineMapsTo504: a sweep that cannot finish inside the
// request's own deadline is cancelled cooperatively and reported as 504,
// and nothing is cached.
func TestRequestDeadlineMapsTo504(t *testing.T) {
	s := New(Config{
		Registry: unitRegistry(1, func(_ chip.Config, p exp.Point, sc *exp.Scratch) (exp.Result, error) {
			<-sc.Context().Done()
			return exp.Result{}, sc.Context().Err()
		}),
	})
	rr := postSweep(s.Handler(), nil, `{"figure":"unit0","timeout_ms":30}`)
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d %s, want 504", rr.Code, rr.Body.String())
	}
	var e map[string]string
	if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || e["class"] != "deadline" {
		t.Errorf("body %s, want class deadline", rr.Body.String())
	}
	if got := s.cache.Stats().Entries; got != 0 {
		t.Errorf("cache holds %d entries after a failed sweep, want 0 (never cache partials)", got)
	}
	if got := s.m.cancelled.Load(); got != 1 {
		t.Errorf("cancelled = %d, want 1", got)
	}
}

// TestClientDisconnectGets499AndExecutionSurvives: a client that goes
// away mid-execution gets the 499 class, but the leader's execution is
// detached — it completes, fills the cache, and the next request is a hit
// without any re-execution.
func TestClientDisconnectGets499AndExecutionSurvives(t *testing.T) {
	release := make(chan struct{})
	var runs atomic.Int64
	s := New(Config{
		Registry: unitRegistry(1, func(_ chip.Config, p exp.Point, sc *exp.Scratch) (exp.Result, error) {
			runs.Add(1)
			select {
			case <-release:
			case <-sc.Context().Done():
				return exp.Result{}, sc.Context().Err()
			}
			return exp.Result{Series: "s", X: 1, Y: 1}, nil
		}),
	})
	h := s.Handler()

	cctx, cancelClient := context.WithCancel(context.Background())
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- postSweep(h, cctx, `{"figure":"unit0"}`) }()
	waitFor(t, "execution to start", func() bool { return runs.Load() == 1 })
	cancelClient()

	rr := <-done
	if rr.Code != statusClientClosedRequest {
		t.Fatalf("disconnected client got %d %s, want 499", rr.Code, rr.Body.String())
	}

	close(release)
	waitFor(t, "detached execution to fill the cache", func() bool {
		return s.cache.Stats().Entries == 1
	})
	after := postSweep(h, nil, `{"figure":"unit0"}`)
	if after.Code != http.StatusOK || after.Header().Get("X-T2simd-Cache") != "hit" {
		t.Errorf("post-disconnect request: %d cache=%q, want 200 hit",
			after.Code, after.Header().Get("X-T2simd-Cache"))
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("run closure executed %d times, want 1 (execution must survive the disconnect, not restart)", got)
	}
}

// TestDrainShedsAndFlipsReadiness: after Drain, readiness reports 503,
// new work is refused with the draining class, and liveness stays 200.
func TestDrainShedsAndFlipsReadiness(t *testing.T) {
	s := New(Config{
		Registry: unitRegistry(2, func(_ chip.Config, p exp.Point, sc *exp.Scratch) (exp.Result, error) {
			return exp.Result{Series: "s", X: 1, Y: 1}, nil
		}),
	})
	h := s.Handler()

	if rr := postSweep(h, nil, `{"figure":"unit0"}`); rr.Code != http.StatusOK {
		t.Fatalf("pre-drain request: %d", rr.Code)
	}
	if !s.Drain(time.Second) {
		t.Fatal("Drain with no in-flight work reported unclean")
	}

	get := func(path string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
		return rr
	}
	if rr := get("/healthz"); rr.Code != http.StatusOK {
		t.Errorf("healthz while draining: %d, want 200 (liveness is not readiness)", rr.Code)
	}
	if rr := get("/readyz"); rr.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: %d, want 503", rr.Code)
	}

	shed := postSweep(h, nil, `{"figure":"unit1"}`)
	if shed.Code != http.StatusServiceUnavailable {
		t.Fatalf("new work while draining: %d, want 503", shed.Code)
	}
	var e map[string]string
	if err := json.Unmarshal(shed.Body.Bytes(), &e); err != nil || e["class"] != "draining" {
		t.Errorf("drain shed body %s, want class draining", shed.Body.String())
	}
	if shed.Header().Get("Retry-After") == "" {
		t.Error("drain shed missing Retry-After")
	}
}

// TestDrainDeadlineCancelsInflight: an in-flight sweep that outlives the
// drain deadline is cancelled cooperatively (through the engines' context
// path), the client gets the draining class, and Drain reports unclean —
// but returns, bounded, instead of hanging on the wedged sweep.
func TestDrainDeadlineCancelsInflight(t *testing.T) {
	s := New(Config{
		Registry: unitRegistry(1, func(_ chip.Config, p exp.Point, sc *exp.Scratch) (exp.Result, error) {
			<-sc.Context().Done() // wedged until cancelled
			return exp.Result{}, sc.Context().Err()
		}),
	})
	h := s.Handler()

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- postSweep(h, nil, `{"figure":"unit0"}`) }()
	waitFor(t, "sweep to wedge in-flight", func() bool { return s.inflight.Load() == 1 })

	if s.Drain(50 * time.Millisecond) {
		t.Error("Drain reported clean despite cancelling a wedged sweep")
	}
	rr := <-done
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled sweep's client got %d %s, want 503", rr.Code, rr.Body.String())
	}
	var e map[string]string
	if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || e["class"] != "draining" {
		t.Errorf("cancelled sweep body %s, want class draining", rr.Body.String())
	}
	if got := s.inflight.Load(); got != 0 {
		t.Errorf("inflight = %d after drain returned, want 0", got)
	}
	if got := s.m.drainCancels.Load(); got != 1 {
		t.Errorf("drainCancels = %d, want 1", got)
	}
	if got := s.cache.Stats().Entries; got != 0 {
		t.Errorf("cache holds %d entries after a cancelled sweep, want 0", got)
	}
}

// quickRegistry is a one-figure registry whose sweep completes instantly,
// for tests about what happens around the simulation, not inside it.
func quickRegistry() Registry {
	return unitRegistry(1, func(_ chip.Config, p exp.Point, sc *exp.Scratch) (exp.Result, error) {
		return exp.Result{Series: "s", X: float64(p.Int("k")), Y: 1}, nil
	})
}

// TestRequestPanicIsOneFailedRequest: a panic in the request path must
// become a 500 for that one request, and the very next request must be
// served normally — a panic is one failed request, never a dead server.
// The registry panics on its first call, which Resolve makes inside the
// handler.
func TestRequestPanicIsOneFailedRequest(t *testing.T) {
	reg := quickRegistry()
	var calls atomic.Int32
	s := New(Config{Registry: func(o bench.Options) []bench.Figure {
		if calls.Add(1) == 1 {
			panic("registry exploded")
		}
		return reg(o)
	}})
	h := s.Handler()

	first := postSweep(h, nil, `{"figure":"unit0"}`)
	if first.Code != http.StatusInternalServerError {
		t.Fatalf("panicking request: %d %s, want 500", first.Code, first.Body.String())
	}
	var e map[string]string
	if err := json.Unmarshal(first.Body.Bytes(), &e); err != nil || e["class"] != "internal" {
		t.Errorf("panic response body %s, want class internal", first.Body.String())
	}

	second := postSweep(h, nil, `{"figure":"unit0"}`)
	if second.Code != http.StatusOK {
		t.Fatalf("request after panic: %d %s, want 200 (server must keep serving)", second.Code, second.Body.String())
	}
	if got := s.m.requestPanics.Load(); got != 1 {
		t.Errorf("recovered request panics = %d, want 1", got)
	}
}

// TestCacheCorruptionIsNeverServed: a cache entry whose bytes are damaged
// after insertion must be rejected by the checksum on the next request
// and the sweep recomputed — the client sees correct bytes both times,
// never the corrupt ones, and the recomputed (clean) entry then serves
// hits again.
func TestCacheCorruptionIsNeverServed(t *testing.T) {
	s := New(Config{Registry: quickRegistry()})
	h := s.Handler()
	body := `{"figure":"unit0"}`

	first := postSweep(h, nil, body)
	if first.Code != http.StatusOK {
		t.Fatalf("first request: %d %s", first.Code, first.Body.String())
	}
	// Damage the stored copy; the bytes served above are a different
	// slice (Put stores a copy).
	s.cache.mu.Lock()
	s.cache.items[first.Header().Get("X-T2simd-Fingerprint")].Value.(*centry).payload[0] ^= 0xFF
	s.cache.mu.Unlock()

	second := postSweep(h, nil, body)
	if second.Code != http.StatusOK {
		t.Fatalf("second request: %d %s", second.Code, second.Body.String())
	}
	if got := second.Header().Get("X-T2simd-Cache"); got != "miss" {
		t.Errorf("request against corrupt entry reported cache %q, want miss (rejected, recomputed)", got)
	}
	if !bytes.Equal(second.Body.Bytes(), first.Body.Bytes()) {
		t.Error("recomputed response differs from the original — corruption leaked")
	}
	if got := s.cache.Stats().CorruptionsRejected; got != 1 {
		t.Errorf("corruptions rejected = %d, want 1", got)
	}
	if got := s.m.executions.Load(); got != 2 {
		t.Errorf("executions = %d, want 2 (the corrupt entry forced a recompute)", got)
	}

	third := postSweep(h, nil, body)
	if got := third.Header().Get("X-T2simd-Cache"); third.Code != http.StatusOK || got != "hit" {
		t.Errorf("third request: %d cache=%q, want 200 hit", third.Code, got)
	}
	if !bytes.Equal(third.Body.Bytes(), first.Body.Bytes()) {
		t.Error("post-recompute hit served different bytes")
	}
}

// TestValidationErrors: every malformed or unsatisfiable request is a 400
// (405 for the wrong method) with the validation class — checked against
// the real figure registry, where resolution is cheap (no simulation).
func TestValidationErrors(t *testing.T) {
	s := New(Config{})
	h := s.Handler()

	cases := []struct {
		name string
		body string
		code int
	}{
		{"bad json", `{"figure":`, http.StatusBadRequest},
		{"unknown field", `{"figure":"fig2","bogus":1}`, http.StatusBadRequest},
		{"no figure", `{}`, http.StatusBadRequest},
		{"unknown figure", `{"figure":"fig99"}`, http.StatusBadRequest},
		{"unknown scale", `{"figure":"fig2","scale":"medium"}`, http.StatusBadRequest},
		{"unknown machine", `{"figure":"fig2","machine":"cray1"}`, http.StatusBadRequest},
		// The retired sharded-engine fields are unknown fields now: a
		// request that still carries any of them is refused, not ignored.
		{"unknown shards field", `{"figure":"fig2","shards":2}`, http.StatusBadRequest},
		{"oversubscribed shards", `{"figure":"fig2","shards":999}`, http.StatusBadRequest},
		{"epoch width without shards", `{"figure":"fig2","epoch_width":4096}`, http.StatusBadRequest},
		{"too narrow epoch width", `{"figure":"fig2","shards":2,"epoch_width":1}`, http.StatusBadRequest},
		{"relaxed width without opt-in", `{"figure":"fig2","epoch_width":1000000000,"relaxed_ok":false}`, http.StatusBadRequest},
		{"negative timeout", `{"figure":"fig2","timeout_ms":-5}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rr := postSweep(h, nil, c.body)
			if rr.Code != c.code {
				t.Fatalf("%s: status %d %s, want %d", c.body, rr.Code, rr.Body.String(), c.code)
			}
			var e map[string]string
			if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || e["class"] != "validation" {
				t.Errorf("%s: body %s, want class validation", c.body, rr.Body.String())
			}
		})
	}

	t.Run("wrong method", func(t *testing.T) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/sweep", nil))
		if rr.Code != http.StatusMethodNotAllowed {
			t.Fatalf("GET /v1/sweep: %d, want 405", rr.Code)
		}
	})
	if got := s.m.executions.Load(); got != 0 {
		t.Errorf("validation failures executed %d sweeps, want 0", got)
	}
}

// countingRegistry wraps reg and counts its calls: one call is one
// resolution that missed the server's memo.
func countingRegistry(reg Registry, calls *atomic.Int64) Registry {
	return func(o bench.Options) []bench.Figure {
		calls.Add(1)
		return reg(o)
	}
}

// TestResolveMemoOncePerTriple: repeated requests resolve through the
// registry once per distinct normalized (figure, scale, machine), however
// they spell the defaults, and each is served with the same key.
func TestResolveMemoOncePerTriple(t *testing.T) {
	var calls atomic.Int64
	s := New(Config{Registry: countingRegistry(unitRegistry(2, func(_ chip.Config, p exp.Point, sc *exp.Scratch) (exp.Result, error) {
		return exp.Result{Series: "s", X: float64(p.Int("k")), Y: 1}, nil
	}), &calls)})
	h := s.Handler()
	keys := map[string]string{} // normalized triple → key
	for _, c := range []struct{ body, triple string }{
		{`{"figure":"unit0"}`, "unit0/full/t2"},
		{`{"figure":"unit0","scale":"full","machine":"t2"}`, "unit0/full/t2"},
		{`{"machine":"t2","figure":"unit0","jobs":1}`, "unit0/full/t2"},
		{`{"figure":"unit0","scale":"small"}`, "unit0/small/t2"},
		{`{"figure":"unit0","scale":"small","timeout_ms":500}`, "unit0/small/t2"},
		{`{"figure":"unit0","machine":"xor"}`, "unit0/full/xor"},
		{`{"figure":"unit1"}`, "unit1/full/t2"},
		{`{"figure":"unit0"}`, "unit0/full/t2"},
		{`{"figure":"unit1","jobs":-3}`, "unit1/full/t2"},
	} {
		rr := postSweep(h, nil, c.body)
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", c.body, rr.Code, rr.Body.String())
		}
		key := rr.Header().Get("X-T2simd-Fingerprint")
		if prev, ok := keys[c.triple]; ok && prev != key {
			t.Errorf("%s: key %s, want %s as before for %s", c.body, key, prev, c.triple)
		}
		keys[c.triple] = key
	}
	if got := calls.Load(); got != int64(len(keys)) {
		t.Errorf("registry called %d times, want %d (once per distinct triple)", got, len(keys))
	}
	if got := len(s.memo); got != len(keys) {
		t.Errorf("memo holds %d entries, want %d", got, len(keys))
	}
}

// TestResolveMemoSharesDefaultSpelling: a request that omits scale and
// machine and one that spells out their defaults are one memo entry with
// one key — checked against the real registry without executing.
func TestResolveMemoSharesDefaultSpelling(t *testing.T) {
	var calls atomic.Int64
	s := New(Config{Registry: countingRegistry(bench.Figures, &calls)})
	a, err := s.resolve(SweepRequest{Figure: "fig2"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.resolve(SweepRequest{Figure: "fig2", Scale: "full", Machine: "t2"})
	if err != nil {
		t.Fatal(err)
	}
	if a.Key != b.Key || a.Req != b.Req {
		t.Errorf("default spellings resolved apart: %+v key %s vs %+v key %s", a.Req, a.Key, b.Req, b.Key)
	}
	if calls.Load() != 1 || len(s.memo) != 1 {
		t.Errorf("registry called %d times into %d memo entries, want 1 and 1", calls.Load(), len(s.memo))
	}
}

// TestResolveMemoHitHonoursBudget: a memo hit resolves its own request's
// jobs and timeout_ms, and does not change what later requests get.
func TestResolveMemoHitHonoursBudget(t *testing.T) {
	s := New(Config{Registry: quickRegistry(), Jobs: 4, MaxTimeout: time.Minute})
	for _, c := range []struct {
		req     SweepRequest
		jobs    int
		timeout time.Duration
	}{
		{SweepRequest{Figure: "unit0"}, 4, time.Minute},
		{SweepRequest{Figure: "unit0", Jobs: 1, TimeoutMS: 1500}, 1, 1500 * time.Millisecond},
		{SweepRequest{Figure: "unit0", Jobs: 9, TimeoutMS: 120000}, 4, time.Minute},
		{SweepRequest{Figure: "unit0", Jobs: -2}, 4, time.Minute},
		{SweepRequest{Figure: "unit0", Jobs: 2}, 2, time.Minute},
		{SweepRequest{Figure: "unit0"}, 4, time.Minute},
	} {
		r, err := s.resolve(c.req)
		if err != nil {
			t.Fatalf("%+v: %v", c.req, err)
		}
		want := c.req.normalized()
		if r.Jobs != c.jobs || r.Timeout != c.timeout || r.Req != want {
			t.Errorf("%+v: jobs %d timeout %v req %+v, want %d %v %+v", c.req, r.Jobs, r.Timeout, r.Req, c.jobs, c.timeout, want)
		}
	}
	if len(s.memo) != 1 {
		t.Errorf("memo holds %d entries, want 1", len(s.memo))
	}
}

// TestResolveMemoConcurrent: goroutines resolving the same and different
// triples at once all get their triple's key and their own budget, and
// the memo ends with one entry per triple. Run under -race.
func TestResolveMemoConcurrent(t *testing.T) {
	s := New(Config{Registry: quickRegistry(), Jobs: 8})
	machines := []string{"t2", "xor", "mc8"}
	keys := make([][]string, 16)
	var wg sync.WaitGroup
	for g := range keys {
		keys[g] = make([]string, len(machines))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, m := range machines {
				r, err := s.resolve(SweepRequest{Figure: "unit0", Machine: m, Jobs: g%8 + 1})
				if err != nil {
					t.Error(err)
					return
				}
				if r.Jobs != g%8+1 {
					t.Errorf("goroutine %d on %s: jobs %d, want %d", g, m, r.Jobs, g%8+1)
				}
				keys[g][i] = r.Key
			}
		}()
	}
	wg.Wait()
	for g := range keys {
		for i, m := range machines {
			if keys[g][i] != keys[0][i] {
				t.Errorf("goroutine %d on %s: key %s, goroutine 0 got %s", g, m, keys[g][i], keys[0][i])
			}
		}
	}
	if len(s.memo) != len(machines) {
		t.Errorf("memo holds %d entries, want %d", len(s.memo), len(machines))
	}
}

// TestResolveMemoSkipsInvalid: invalid requests are still refused with
// 400 — also a negative timeout on a memoized triple — and add no entry.
func TestResolveMemoSkipsInvalid(t *testing.T) {
	s := New(Config{Registry: quickRegistry()})
	h := s.Handler()
	if rr := postSweep(h, nil, `{"figure":"unit0"}`); rr.Code != http.StatusOK {
		t.Fatalf("valid request: %d %s", rr.Code, rr.Body.String())
	}
	for _, body := range []string{
		`{}`,
		`{"figure":"unit9"}`,
		`{"figure":"unit0","scale":"medium"}`,
		`{"figure":"unit0","machine":"cray1"}`,
		`{"figure":"unit0","timeout_ms":-5}`,
		`{"figure":"unit0","scale":"small","timeout_ms":-5}`,
	} {
		for range 2 {
			if rr := postSweep(h, nil, body); rr.Code != http.StatusBadRequest {
				t.Errorf("%s: %d %s, want 400", body, rr.Code, rr.Body.String())
			}
		}
	}
	if len(s.memo) != 1 {
		t.Errorf("memo holds %d entries after invalid requests, want 1", len(s.memo))
	}
}

// TestMetricsEndpoint: the metrics surface renders the documented names.
func TestMetricsEndpoint(t *testing.T) {
	s := New(Config{
		Registry: unitRegistry(1, func(_ chip.Config, p exp.Point, sc *exp.Scratch) (exp.Result, error) {
			return exp.Result{Series: "s", X: 1, Y: 1}, nil
		}),
	})
	h := s.Handler()
	postSweep(h, nil, `{"figure":"unit0"}`)
	postSweep(h, nil, `{"figure":"unit0"}`)

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", rr.Code)
	}
	out := rr.Body.String()
	for _, want := range []string{
		"t2simd_requests_total 2",
		"t2simd_executions_total 1",
		"t2simd_cache_hits_total 1",
		"t2simd_cache_hit_rate 0.5000",
		"t2simd_queue_depth 0",
		"t2simd_inflight 0",
		"t2simd_draining 0",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestPoolSizeDefaultsToGOMAXPROCS: by default the server's one point pool
// has a worker per core, shared by every executing sweep, instead of
// GOMAXPROCS/MaxConcurrent workers per sweep.
func TestPoolSizeDefaultsToGOMAXPROCS(t *testing.T) {
	s := New(Config{MaxConcurrent: 4})
	if got, want := s.pool.Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("default pool has %d workers, want GOMAXPROCS = %d", got, want)
	}
	if got := New(Config{Jobs: 3}).pool.Workers(); got != 3 {
		t.Errorf("Config{Jobs: 3} pool has %d workers", got)
	}
}

// TestServersLeaveNoIdleWorkers: a server whose sweeps have finished holds
// no pool worker, so servers started one after another (as the benchmark's
// daemon passes do) do not pile up idle workers and the machines cached in
// their arenas.
func TestServersLeaveNoIdleWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		reg := unitRegistry(2, func(_ chip.Config, p exp.Point, sc *exp.Scratch) (exp.Result, error) {
			time.Sleep(time.Millisecond)
			return exp.Result{Series: "s", X: float64(p.Int("k")), Y: 1}, nil
		})
		h := New(Config{Registry: reg, Jobs: 2}).Handler()
		var wg sync.WaitGroup
		for _, body := range []string{`{"figure":"unit0"}`, `{"figure":"unit1"}`} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if rr := postSweep(h, nil, body); rr.Code != http.StatusOK {
					t.Errorf("%s: %d %s", body, rr.Code, rr.Body.String())
				}
			}()
		}
		wg.Wait()
	}
	waitFor(t, "pool workers to exit", func() bool { return runtime.NumGoroutine() <= base })
}
