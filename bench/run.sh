#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout. Everything the Go toolchain writes (build cache, temp files,
# telemetry counters, the binary) stays under .bench_build/ inside the
# checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/bench" && go build -o "$build/scalekv-bench" .)
cd "$root"
exec "$build/scalekv-bench" "$@"
