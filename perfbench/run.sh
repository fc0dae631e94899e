#!/usr/bin/env bash
# Builds the odeprotod benchmark and runs it from the repository root.
# Every build artifact (Go build cache, temp dirs, binaries) and every run
# artifact (daemon data dirs, span files) stays under .bench_build.
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in $out too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go -C "$root/perfbench" build -o "$out/odebench" .
exec "$out/odebench" -root "$root" "$@"
