#!/usr/bin/env bash
# Builds the benchmark inside the checkout it is run from and hands it the
# driver's arguments. Everything the Go toolchain writes (build cache,
# telemetry counters, the binary) goes under .bench_build in the checkout
# root, so a run reads and writes nothing outside the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -C benchmark -o "$build/zipg-benchmark" .
exec "$build/zipg-benchmark" "$@"
