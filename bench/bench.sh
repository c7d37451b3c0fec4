#!/usr/bin/env bash
# Entry point BENCHMARK.json names: builds the runner from source into
# .bench_build (the go build cache lives there too, so nothing is written
# outside the checkout) and hands it the arguments:
#
#   bash bench/bench.sh --workload topk_uniform --seed 1 --seconds 12 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
mkdir -p "$root/.bench_build/bin"
go -C "$root/bench" build -o "$root/.bench_build/bin/bench-run" ./run
cd "$root"
exec "$root/.bench_build/bin/bench-run" "$@"
