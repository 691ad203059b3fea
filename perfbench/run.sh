#!/usr/bin/env bash
# Builds igpartd and the benchmark from this checkout's sources, then runs
# one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache live under $CARGO_TARGET_DIR
# (default .bench_build), so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOTMPDIR=$out GOTOOLCHAIN=local GOFLAGS=-mod=mod
export GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod GOPROXY=off GOWORK=off

go build -o "$out/igpartd" ./cmd/igpartd >&2
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" -igpartd "$out/igpartd" -work "$out/work" "$@"
