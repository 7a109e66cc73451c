#!/usr/bin/env bash
# Builds the nbperf load generator from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash nbperf/run.sh --workload verify-mix --seed 1 --seconds 20 --trace 0
#
# Build output and the Go build cache live under the build directory
# ($CARGO_TARGET_DIR, default .bench_build), so the run touches nothing
# outside the checkout.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/nbperf" && go build -o "$out/nbperf" .)
exec "$out/nbperf" --trace-dir "$out" "$@"
