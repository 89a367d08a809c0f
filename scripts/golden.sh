#!/usr/bin/env bash
# golden.sh — the byte-identity gate for the figure trajectories
# (`make golden`, wired into CI): regenerate all six figures at
# -scale small with cmd/figures and compare the SHA-256 of every
# BENCH_<fig>.json with the "figures" section of benchmark/golden.json.
# The golden file is only read, never rewritten: a mismatch means the
# simulated results changed, which a pure refactor or speed-up must not do.
set -euo pipefail
cd "$(dirname "$0")/.."

GO=${GO:-go}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

echo "== regenerate the small-scale figures (-jobs 2) =="
$GO run ./cmd/figures -scale small -jobs 2 -out "$dir" >/dev/null

# "name": "sha256" pairs of the figures section only (the daemon section
# that follows it holds per-profile response hashes).
pairs=$(sed -n '/"figures": {/,/}/p' benchmark/golden.json |
    grep -o '"[A-Za-z0-9_-]*": *"[0-9a-f]\{64\}"' | tr -d '" ' | tr '\n' ' ' || true)
[ -n "$pairs" ] || { echo "golden: no figure hashes in benchmark/golden.json"; exit 1; }

fail=0
checked=0
for pair in $pairs; do
    name=${pair%%:*}
    want=${pair#*:}
    file="$dir/BENCH_$name.json"
    if [ ! -f "$file" ]; then
        echo "golden: $name: BENCH_$name.json was not written"
        fail=1
        continue
    fi
    got=$(sha256sum "$file" | cut -d' ' -f1)
    if [ "$got" = "$want" ]; then
        echo "golden: $name ok"
    else
        echo "golden: $name MISMATCH: got $got, want $want"
        fail=1
    fi
    checked=$((checked + 1))
done
for file in "$dir"/BENCH_*.json; do
    name=$(basename "$file" .json)
    name=${name#BENCH_}
    case " $pairs " in
    *" $name:"*) ;;
    *)
        echo "golden: $name has no hash in benchmark/golden.json"
        fail=1
        ;;
    esac
done
[ "$fail" -eq 0 ] || exit 1
echo "golden: all $checked figure trajectories match benchmark/golden.json"
