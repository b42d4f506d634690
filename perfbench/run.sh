#!/usr/bin/env bash
# Builds tppd and the perfbench load generator from the checkout this is run in,
# then runs the load generator with the given arguments:
#
#   bash perfbench/run.sh --workload steady --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build product, cache and scratch
# file stays under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/xdg-config/go/telemetry" "$build/xdg-cache"
# Telemetry off: otherwise the go command forks a detached upload process
# that outlives this script.
echo off > "$build/xdg-config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/xdg-config" XDG_CACHE_HOME="$build/xdg-cache"
export GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOENV=off
go build -o "$build/tppd" ./cmd/tppd >&2
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -tppd "$build/tppd" -workdir "$build" "$@"
