package service

import (
	"fmt"
	"io"
	"sync/atomic"
)

// metrics is the server's operational telemetry, exposed at /metrics in
// the plain `name value` text form. Counters are monotonic; gauges are
// sampled at render time. The names are the public contract the
// daemon-smoke and the service tests assert against.
type metrics struct {
	requests      atomic.Int64 // sweep submissions received
	coalesced     atomic.Int64 // requests served by another request's execution
	executions    atomic.Int64 // sweeps actually executed
	execErrors    atomic.Int64 // executions that returned an error
	shedQueueFull atomic.Int64 // requests shed because the queue was at depth
	shedQueueWait atomic.Int64 // requests shed after aging out of the queue
	shedDraining  atomic.Int64 // requests shed because the server was draining
	requestPanics atomic.Int64 // handler panics converted to 500s
	pointErrors   atomic.Int64 // points that failed
	cancelled     atomic.Int64 // sweeps aborted by deadline, client or drain
	drainCancels  atomic.Int64 // in-flight sweeps cancelled by the drain deadline
}

// render writes the full metrics surface: the server's counters, the
// cache's counters and size, and the live queue/in-flight/drain gauges.
func (s *Server) renderMetrics(w io.Writer) {
	cs := s.cache.Stats()
	var lines = []struct {
		name string
		val  any
	}{
		{"t2simd_requests_total", s.m.requests.Load()},
		{"t2simd_cache_hits_total", cs.Hits},
		{"t2simd_cache_misses_total", cs.Misses},
		{"t2simd_cache_hit_rate", fmt.Sprintf("%.4f", cs.HitRate())},
		{"t2simd_cache_entries", cs.Entries},
		{"t2simd_cache_bytes", cs.Bytes},
		{"t2simd_cache_evictions_total", cs.Evictions},
		{"t2simd_cache_corruptions_rejected_total", cs.CorruptionsRejected},
		{"t2simd_coalesced_total", s.m.coalesced.Load()},
		{"t2simd_executions_total", s.m.executions.Load()},
		{"t2simd_exec_errors_total", s.m.execErrors.Load()},
		{"t2simd_shed_queue_full_total", s.m.shedQueueFull.Load()},
		{"t2simd_shed_queue_wait_total", s.m.shedQueueWait.Load()},
		{"t2simd_shed_draining_total", s.m.shedDraining.Load()},
		{"t2simd_request_panics_total", s.m.requestPanics.Load()},
		{"t2simd_point_errors_total", s.m.pointErrors.Load()},
		{"t2simd_cancelled_total", s.m.cancelled.Load()},
		{"t2simd_drain_cancels_total", s.m.drainCancels.Load()},
		{"t2simd_queue_depth", s.waiting.Load()},
		{"t2simd_inflight", s.inflight.Load()},
		{"t2simd_draining", boolGauge(s.draining.Load())},
	}
	for _, l := range lines {
		fmt.Fprintf(w, "%s %v\n", l.name, l.val)
	}
}

func boolGauge(b bool) int {
	if b {
		return 1
	}
	return 0
}
