#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in and
# runs it with the given flags. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary files,
# configuration) stays under .bench_build/ in the checkout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
