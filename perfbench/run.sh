#!/usr/bin/env bash
# Builds the benchmark program from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload table4_paper --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache, the Go
# command's config and telemetry files (XDG_CONFIG_HOME) and the benchmark's
# scratch files all live under $CARGO_TARGET_DIR (default .bench_build), so
# nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOPROXY=off
go -C "$root/perfbench" build -trimpath -o "$out/perfbench" . >&2
export PERFBENCH_DIR=$out
exec "$out/perfbench" "$@"
