#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload paper-250k --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and traced runs' span dumps go to
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
