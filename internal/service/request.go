// Package service is the engine room of the t2simd daemon: it turns the
// repo's one-shot figure sweeps into a robust long-running
// simulation-as-a-service layer. A sweep request names a figure
// experiment, a machine profile and an execution budget; the service
// resolves it against the same internal/bench registry the CLIs use,
// fingerprints the resolved sweep canonically (the simulator is
// deterministic, so equal fingerprints mean byte-identical results),
// serves repeats from a checksummed LRU result cache, coalesces
// concurrent duplicates through a singleflight group, and executes the
// rest on an exp.Runner with fresh per-worker arenas behind admission
// control — a bounded queue that sheds with 429/503 + Retry-After instead
// of melting down, per-request deadlines threaded into the engines'
// cooperative cancellation, and a SIGTERM drain that finishes or cancels
// in-flight work within a deadline. See DESIGN.md Sect. 14.
package service

import (
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/machine"
)

// SweepRequest is the wire shape of one sweep submission: which figure
// experiment to run, on which machine profile, and with what execution
// budget. Only the result-relevant fields (figure, scale, machine) decide
// the cache fingerprint; jobs and the timeout are execution budget and
// never change a result byte, so they are deliberately excluded (pinned by
// the fingerprint property tests).
type SweepRequest struct {
	// Figure names an experiment in the figure registry: fig2, fig4, fig5,
	// fig6, fig7 or scaling. Required.
	Figure string `json:"figure"`
	// Scale selects the grid scale: "full" (default) or "small".
	Scale string `json:"scale,omitempty"`
	// Machine names a machine profile; empty means the default (t2).
	Machine string `json:"machine,omitempty"`
	// Jobs caps the sweep-pool worker goroutines for this request; 0 or
	// negative accepts the server's budget. Execution-only.
	Jobs int `json:"jobs,omitempty"`
	// TimeoutMS bounds the request's execution in wall-clock milliseconds;
	// 0 accepts the server's ceiling. Execution-only.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Registry resolves figure experiments from scaled options; it exists so
// tests can substitute synthetic experiments for the real (slow) figure
// sweeps. The default is bench.Figures.
type Registry func(bench.Options) []bench.Figure

// Resolved is a validated, normalized sweep ready to execute: the profile
// and scaled options it runs on, the figure experiment, the canonical
// fingerprint addressing its result, and the execution budget.
type Resolved struct {
	Req     SweepRequest // normalized: defaults filled
	Profile machine.Profile
	Options bench.Options
	Figure  bench.Figure
	// Key is the canonical content address of this sweep's result: a
	// stable hash over what the sweep computes — the figure, the scale,
	// the experiment's machine stamp and chip configuration, and every
	// normalized grid point. Requests that compute the same result share
	// it, whichever profile they name. See fingerprint.go.
	Key string
	// Jobs is the resolved sweep-pool worker count; Timeout the resolved
	// execution deadline. Both are execution budget, absent from Key.
	Jobs    int
	Timeout time.Duration
}

// normalized fills the request's defaults: the full scale, the default
// machine, and a zero job cap for a negative one. It validates nothing.
func (req SweepRequest) normalized() SweepRequest {
	if req.Scale == "" {
		req.Scale = "full"
	}
	if req.Machine == "" {
		req.Machine = machine.DefaultName
	}
	if req.Jobs < 0 {
		req.Jobs = 0
	}
	return req
}

// budget resolves a normalized request's execution budget: jobs is the
// server's sweep-pool budget (the request can lower it, never raise it);
// maxTimeout is the server's deadline ceiling (likewise).
func budget(req SweepRequest, jobs int, maxTimeout time.Duration) (int, time.Duration, error) {
	if req.Jobs > 0 && req.Jobs < jobs {
		jobs = req.Jobs
	}
	if jobs < 1 {
		jobs = 1
	}
	if req.TimeoutMS < 0 {
		return 0, 0, fmt.Errorf("service: negative timeout_ms %d", req.TimeoutMS)
	}
	// Compare in milliseconds before converting: outside input times
	// time.Millisecond can overflow a Duration and wrap to a tiny deadline.
	timeout := maxTimeout
	if req.TimeoutMS > 0 && req.TimeoutMS <= maxTimeout.Milliseconds() {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	return jobs, timeout, nil
}

// Resolve validates and normalizes a request against the figure and
// machine registries and computes its fingerprint. jobs and maxTimeout
// are the server's execution budget (see budget). Every error is a
// validation failure — the HTTP layer maps them all to 400.
func Resolve(req SweepRequest, reg Registry, jobs int, maxTimeout time.Duration) (*Resolved, error) {
	if reg == nil {
		reg = bench.Figures
	}
	if req.Figure == "" {
		return nil, fmt.Errorf("service: request names no figure")
	}
	req = req.normalized()
	if req.Scale != "full" && req.Scale != "small" {
		return nil, fmt.Errorf("service: unknown scale %q (want full or small)", req.Scale)
	}
	prof, err := machine.Get(req.Machine)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	jobs, timeout, err := budget(req, jobs, maxTimeout)
	if err != nil {
		return nil, err
	}

	var o bench.Options
	if req.Scale == "small" {
		o = bench.Small()
	} else {
		o = bench.Default()
	}
	o = o.WithProfile(prof)

	var fig *bench.Figure
	figs := reg(o)
	for i := range figs {
		if figs[i].Name == req.Figure {
			fig = &figs[i]
			break
		}
	}
	if fig == nil {
		known := make([]string, len(figs))
		for i, f := range figs {
			known[i] = f.Name
		}
		return nil, fmt.Errorf("service: unknown figure %q (have %v)", req.Figure, known)
	}

	r := &Resolved{
		Req:     req,
		Profile: prof,
		Options: o,
		Figure:  *fig,
		Jobs:    jobs,
		Timeout: timeout,
	}
	r.Key = fingerprint(r)
	return r, nil
}
