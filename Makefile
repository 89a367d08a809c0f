GO ?= go

# The bench targets pipe go test into benchjson; pipefail makes a failing
# benchmark run fail the target instead of vanishing into the pipe.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

.PHONY: ci fmt vet build test test-race test-full bench bench-smoke bench-diff daemon-smoke golden figures clean

# ci is the tier the workflow runs: formatting, static checks, build, and
# the fast test tier (slow shape sweeps are skipped under -short).
ci: fmt vet build test

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -short ./...

# test-race runs the fast tier under the race detector — the exp worker
# pool and every -jobs N path are the code this is for.
test-race:
	$(GO) test -race -short ./...

# test-full runs every shape check at Small() scale (about a minute of
# simulated sweeps on one core).
test-full:
	$(GO) test ./...

# bench runs the figure benchmarks and records the perf trajectory
# (ns/op, allocs/op, simulated cycles and accesses per second) as
# canonical JSON in BENCH_perf.json. Three iterations per benchmark:
# ns/op is still the per-iteration mean, but shared-runner noise
# averages out instead of landing verbatim in the committed trajectory.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 3x -benchmem . \
		| $(GO) run ./cmd/benchjson -out BENCH_perf.json

# bench-diff measures a fresh perf trajectory and compares it against the
# committed BENCH_perf.json: more than a 20% drop in accesses/s or any
# growth in allocs/op fails, with a per-benchmark delta table on failure.
# BenchmarkDaemonHit puts the t2simd hit path's allocations under the same
# gate.
# CI runs it as a blocking step — the committed baseline plus benchdiff's
# added/removed tolerance make it safe to gate on; the 20% budget absorbs
# shared-runner noise. BenchmarkResilience is deliberately not in the
# pattern: its allocation counts depend on where in the sweep the
# mid-run cancel lands, so gating it would be flaky — it still records
# its robustness metrics in BENCH_perf.json via `make bench`, where the
# added/removed tolerance keeps the asymmetry harmless.
bench-diff:
	$(GO) test -run '^$$' -bench 'BenchmarkFig|BenchmarkAblation|BenchmarkDaemon' -benchtime 1x -benchmem . \
		| $(GO) run ./cmd/benchjson -out BENCH_perf.fresh.json
	$(GO) run ./cmd/benchdiff -base BENCH_perf.json -fresh BENCH_perf.fresh.json
	rm -f BENCH_perf.fresh.json

# bench-smoke is the CI tier: one short benchmark iteration through the
# same JSON pipeline, to catch benchmark and tooling build rot.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkFig5SegmentedOverhead' -benchtime 1x -benchmem . \
		| $(GO) run ./cmd/benchjson -out BENCH_smoke.json
	rm -f BENCH_smoke.json

# daemon-smoke boots the t2simd service daemon end to end: submit a small
# fig2 sweep twice over HTTP, assert the repeat is a cache hit and that
# both responses are byte-identical to the BENCH_fig2.json cmd/figures
# writes for the same sweep; submit the small scaling sweep on t2 and on
# xor and assert the second is a hit under the same fingerprint with the
# bytes of BENCH_scaling.json; then SIGTERM and assert a clean drain
# (exit 0). This is the daemon's headline contract executed for real —
# listener, cache, fingerprint and signal path included.
daemon-smoke:
	./scripts/daemon_smoke.sh

# golden regenerates all six figures at -scale small and compares the
# SHA-256 of each BENCH_<fig>.json with the "figures" section of
# benchmark/golden.json (read only): the byte-identity contract as a gate.
golden:
	./scripts/golden.sh

# figures regenerates the paper-scale figures in parallel.
figures:
	$(GO) run ./cmd/figures -scale full -out figures-out

clean:
	rm -rf figures-out
