#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root; every argument is passed to the benchmark:
#
#   bash bench/run.sh --workload fig14 --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, temporary files and the traced run's CPU
# profile all stay under .bench_build/ in the working directory. Nothing is
# downloaded: the benchmark module depends only on the repository's own
# module, through a directory replace.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" PPROF_TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C bench build -o "$build/zrbench-e2e" .
exec "$build/zrbench-e2e" -out "$build" "$@"
