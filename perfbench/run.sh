#!/usr/bin/env bash
# Builds the perfbench harness from the checkout's source and runs it,
# passing every argument through. Run from the repository root:
#
#   bash perfbench/run.sh --workload capped-128 --seed 1 --seconds 15 --trace 0
#
# Build cache, binary and traced-run output all stay under .bench_build.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
# XDG_CONFIG_HOME and TMPDIR keep the go command's telemetry counters
# and scratch files in the checkout too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
	GOFLAGS= GOENV=off XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/tmp" \
	TMPDIR="$build/tmp"

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" "$@"
