#!/usr/bin/env bash
# Builds the benchmark and runs it; run from the repository root:
#
#   bash perfbench/run.sh --workload kv-read --seed 1 --seconds 15 --trace 0
#
# The binary, Go's build cache and the go command's own state (module
# cache, telemetry counters under the config directory) go under
# $CARGO_TARGET_DIR (default .bench_build), so the run writes nothing
# outside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath \
	XDG_CONFIG_HOME=$out/config GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
