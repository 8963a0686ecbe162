#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and executes it:
#   bash perfbench/run.sh --workload sim-linked --seed 1 --seconds 15 --trace 0
# Every build artefact (Go build cache, temp files, the binary) stays under
# .bench_build in the current directory, so a run reads and writes nothing
# outside the checkout apart from the Go toolchain itself.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOMODCACHE="$build/gomod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off

go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
