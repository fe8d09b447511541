#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload grid3d --seed 1 --seconds 22 --trace 0
#
# Run from the repository root. Every build artifact, the Go build cache
# and the benchmark's scratch files stay under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
# Address-space randomization moves the runtime's thread stacks and
# off-heap structures from run to run; on the serve path that alone
# shifted median latency by up to a third between runs of one binary.
# Run with it off where the host allows, so runs differ only in what
# they measure.
run=("$build/perfbench" -scratch "$build/data" "$@")
if setarch "$(uname -m)" -R true 2>/dev/null; then
	exec setarch "$(uname -m)" -R "${run[@]}"
fi
exec "${run[@]}"
