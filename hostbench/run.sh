#!/usr/bin/env bash
# Builds the host-time benchmark and cmd/simd from this checkout's source,
# then runs one workload. Run it from the checkout root:
#
#   bash hostbench/run.sh --workload tw-phold --seed 1 --seconds 20 --trace 0
#
# The result is the last line of standard output; build output and
# progress go to standard error. Everything it writes (Go build cache,
# binaries, daemon stores) stays under .bench_build/ in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build/hostbench"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$here" && go build -o "$out/hostbench" . && go build -o "$out/simd" repro/cmd/simd) >&2
exec "$out/hostbench" -simd "$out/simd" -dir "$out/tmp" "$@"
