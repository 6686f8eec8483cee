#!/usr/bin/env bash
# Builds the benchmark and the privranged daemon from this checkout's
# sources, then runs one benchmark invocation. Every argument is passed
# through, e.g.
#
#   bash perfbench/run.sh --workload buy-open --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain would write (build cache, module cache,
# temporary files, telemetry) stays under .bench_build in the checkout.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod

cd "$root/perfbench"
go build -o "$build/bin/perfbench" . >&2
go build -o "$build/bin/privranged" privrange/cmd/privranged >&2
cd "$root"
exec "$build/bin/perfbench" -daemon "$build/bin/privranged" -out "$build/perfbench" "$@"
