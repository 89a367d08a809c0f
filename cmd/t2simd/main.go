// Command t2simd is the simulation-as-a-service daemon: a long-running
// HTTP server that executes figure sweeps (the same declarative
// experiments cmd/figures runs) on the same worker pool, with robustness
// as the headline contract. Determinism is the lever: every sweep has a
// canonical fingerprint, so results are perfectly cacheable (checksummed
// LRU result cache), concurrent duplicates coalesce to one execution
// (singleflight), and a response is byte-identical to the
// BENCH_<fig>.json cmd/figures would write for the same sweep. The points
// of every executing sweep share one pool of -jobs workers, oldest sweep
// first, so no core idles while a sweep has points left to start.
//
// Overload behavior is explicit rather than emergent: a bounded admission
// queue with depth and age limits sheds with 429/503 + Retry-After when
// saturated, per-request deadlines propagate into the engines'
// cooperative cancellation, a failed point fails its sweep with a 500
// (points are deterministic, so retrying one cannot help), and a handler
// panic is one failed request, never a dead server. On SIGTERM/SIGINT the
// daemon drains: readiness flips to 503, new work is shed, and in-flight
// sweeps either finish within the drain deadline or are cancelled
// cooperatively — then the process exits 0.
//
// Usage:
//
//	t2simd [-addr :8714] [-addr-file FILE] [-max-concurrent N]
//	       [-queue-depth N] [-queue-wait DUR] [-cache-bytes N] [-jobs N]
//	       [-max-timeout DUR] [-retry-after DUR] [-drain-timeout DUR]
//
// Endpoints: POST /v1/sweep (body: service.SweepRequest JSON; response:
// the canonical trajectory), GET /healthz, GET /readyz, GET /metrics.
// A request names "figure", "scale" and "machine", which decide the
// result, plus the execution budget "jobs" and "timeout_ms", which never
// changes a response byte and is excluded from the cache fingerprint.
// Unknown fields are a 400.
// HTTP statuses: 200 served, 400 validation, 429 queue full (Retry-After),
// 499 client closed request, 503 saturated or draining (Retry-After),
// 504 deadline exceeded, 500 internal.
//
// Exit codes (see doc.go for the repo-wide conventions):
//
//	0  clean shutdown — drained, whether in-flight work finished or was
//	   cancelled at the drain deadline (graceful degradation is success)
//	1  runtime error (listen failure, serve failure)
//	2  flag misuse
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", ":8714", "listen address (host:port; :0 picks a free port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (for scripts driving :0)")
	maxConcurrent := flag.Int("max-concurrent", 0, "sweeps executing simultaneously (0: default 2)")
	queueDepth := flag.Int("queue-depth", 0, "requests allowed to wait for an executor before 429 shedding (0: default 16)")
	queueWait := flag.Duration("queue-wait", 0, "max queue age before 503 shedding (0: default 10s)")
	cacheBytes := flag.Int64("cache-bytes", 0, "result cache payload budget in bytes (0: default 64 MiB)")
	jobs := flag.Int("jobs", 0, "point workers shared by every executing sweep (0: GOMAXPROCS)")
	maxTimeout := flag.Duration("max-timeout", 0, "ceiling and default for per-request execution deadlines (0: default 5m)")
	retryAfter := flag.Duration("retry-after", 0, "Retry-After hint on shed responses (0: default 1s)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "on SIGTERM, how long in-flight sweeps may run before being cancelled")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "t2simd: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}

	srv := service.New(service.Config{
		MaxConcurrent: *maxConcurrent,
		QueueDepth:    *queueDepth,
		QueueWait:     *queueWait,
		CacheBytes:    *cacheBytes,
		Jobs:          *jobs,
		MaxTimeout:    *maxTimeout,
		RetryAfter:    *retryAfter,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "t2simd: %v\n", err)
		os.Exit(1)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "t2simd: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Fprintf(os.Stderr, "t2simd: listening on %s\n", bound)

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)

	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "t2simd: %s — draining (deadline %s)\n", sig, *drainTimeout)
		clean := srv.Drain(*drainTimeout)
		if clean {
			fmt.Fprintln(os.Stderr, "t2simd: drain complete, all in-flight work finished")
		} else {
			fmt.Fprintln(os.Stderr, "t2simd: drain deadline reached, in-flight work cancelled")
		}
		// In-flight handlers have returned (or are returning their shed
		// responses); close the listener and connections promptly.
		hs.Close()
		os.Exit(0)
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "t2simd: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
}
