#!/usr/bin/env bash
# daemon_smoke.sh — end-to-end smoke of the t2simd service daemon
# (`make daemon-smoke`, wired into CI):
#
#   1. regenerate the reference BENCH_fig2.json, BENCH_fig5.json and
#      BENCH_scaling.json with cmd/figures;
#   2. start t2simd on an ephemeral port;
#   3. submit the same small fig2 sweep twice over HTTP and assert the
#      first response is a cache miss, the second a cache hit, and both
#      are byte-identical to each other AND to the cmd/figures output —
#      the daemon's headline contract;
#   4. submit cold small fig5 and scaling sweeps at the same time, so the
#      points of two sweeps share the daemon's one point pool, and assert
#      both are misses byte-identical to the cmd/figures output;
#   5. submit the small scaling sweep on xor and assert it is a hit under
#      the fingerprint of step 4 (the study sweeps every profile itself, so
#      its key does not depend on the one named) with the same bytes;
#   6. SIGTERM the daemon and assert it drains cleanly with exit 0.
set -euo pipefail
cd "$(dirname "$0")/.."

GO=${GO:-go}
dir=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null
    rm -rf "$dir"
    return 0
}
trap cleanup EXIT

echo "== reference trajectory via cmd/figures =="
$GO run ./cmd/figures -scale small -fig 2,5,scaling -jobs 2 -out "$dir/ref" >/dev/null

echo "== build and start t2simd on an ephemeral port =="
$GO build -o "$dir/t2simd" ./cmd/t2simd
"$dir/t2simd" -addr 127.0.0.1:0 -addr-file "$dir/addr" -jobs 2 &
pid=$!

for _ in $(seq 1 100); do
    [ -s "$dir/addr" ] && break
    sleep 0.1
done
[ -s "$dir/addr" ] || { echo "daemon-smoke: t2simd never wrote its address"; exit 1; }
addr=$(cat "$dir/addr")

curl -fsS "http://$addr/healthz" >/dev/null
curl -fsS "http://$addr/readyz" >/dev/null

body='{"figure":"fig2","scale":"small"}'

echo "== first submission (expect cache miss) =="
curl -fsS -D "$dir/h1" -o "$dir/r1.json" -X POST -d "$body" "http://$addr/v1/sweep"
grep -qi "^x-t2simd-cache: miss" "$dir/h1" || { echo "daemon-smoke: first response was not a miss"; cat "$dir/h1"; exit 1; }

echo "== second submission (expect cache hit) =="
curl -fsS -D "$dir/h2" -o "$dir/r2.json" -X POST -d "$body" "http://$addr/v1/sweep"
grep -qi "^x-t2simd-cache: hit" "$dir/h2" || { echo "daemon-smoke: second response was not a hit"; cat "$dir/h2"; exit 1; }

echo "== byte-identity: repeat vs first, first vs cmd/figures =="
cmp "$dir/r1.json" "$dir/r2.json"
cmp "$dir/r1.json" "$dir/ref/BENCH_fig2.json"

echo "== cold fig5 and scaling at once (two sweeps in one point pool) =="
curl -fsS -D "$dir/h5" -o "$dir/r5.json" -X POST -d '{"figure":"fig5","scale":"small"}' "http://$addr/v1/sweep" &
fig5=$!
curl -fsS -D "$dir/h3" -o "$dir/r3.json" -X POST -d '{"figure":"scaling","scale":"small"}' "http://$addr/v1/sweep"
wait "$fig5"
for h in h5 h3; do
    grep -qi "^x-t2simd-cache: miss" "$dir/$h" || { echo "daemon-smoke: concurrent cold sweep was not a miss"; cat "$dir/$h"; exit 1; }
done
cmp "$dir/r5.json" "$dir/ref/BENCH_fig5.json"
cmp "$dir/r3.json" "$dir/ref/BENCH_scaling.json"

echo "== scaling on xor (expect a hit under the same fingerprint) =="
curl -fsS -D "$dir/h4" -o "$dir/r4.json" -X POST -d '{"figure":"scaling","scale":"small","machine":"xor"}' "http://$addr/v1/sweep"
grep -qi "^x-t2simd-cache: hit" "$dir/h4" || { echo "daemon-smoke: scaling on xor was not a hit"; cat "$dir/h4"; exit 1; }
fp() { grep -i "^x-t2simd-fingerprint:" "$1" | tr -d '\r' | awk '{print $2}'; }
key=$(fp "$dir/h3")
[ -n "$key" ] && [ "$key" = "$(fp "$dir/h4")" ] || { echo "daemon-smoke: scaling fingerprints differ across profiles"; exit 1; }
cmp "$dir/r3.json" "$dir/r4.json"

echo "== metrics =="
curl -fsS "http://$addr/metrics" | grep -E "t2simd_(requests_total|executions_total|cache_hits_total|cache_hit_rate)"

echo "== SIGTERM drain (expect exit 0) =="
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
pid=""
[ "$rc" -eq 0 ] || { echo "daemon-smoke: t2simd exited $rc, want 0"; exit 1; }

echo "daemon-smoke: ok"
