GO ?= go

.PHONY: ci fmt vet build test test-race test-full daemon-smoke golden figures clean

# ci is the tier the workflow's test job runs: formatting, static checks,
# build, and every test (tier 1).
ci: fmt vet build test-full

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

# test-full is tier 1: every test, the shape checks at Small() scale and
# the work ledger included (about 10 s on 2 vCPUs).
test-full:
	$(GO) test ./...

# daemon-smoke boots the t2simd service daemon end to end: submit a small
# fig2 sweep twice over HTTP, assert the repeat is a cache hit and that
# both responses are byte-identical to the BENCH_fig2.json cmd/figures
# writes for the same sweep; submit cold small fig5 and scaling sweeps at
# once, so two sweeps share the daemon's point pool, and compare both with
# cmd/figures' BENCH_fig5.json and BENCH_scaling.json; submit scaling on
# xor and assert it is a hit under the same fingerprint with the same
# bytes; then SIGTERM and assert a clean drain (exit 0). This is the daemon's headline contract executed for real —
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
