#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments. Run from the root of the repository:
#
#   bash perfbench/run.sh --workload update-zipf --seed 1 --seconds 10 --trace 0
#
# Every build product (the Go build cache and the binary) stays under
# .bench_build/ in the checkout; nothing is fetched from the network.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/go-cache GOMODCACHE=$out/go-mod GOPATH=$out/go-path
mkdir -p "$out/tmp"
export GOTMPDIR=$out/tmp GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
