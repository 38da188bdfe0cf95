#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload central-har --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact (Go build cache, module cache, temp files, Go
# telemetry, the binary, span traces) stays under .bench_build in the current
# directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off

go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
