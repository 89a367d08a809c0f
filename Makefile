GO ?= go

.PHONY: ci fmt vet build test test-race test-full daemon-smoke golden figures clean

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
