#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; every
# argument goes to the binary (see main.go). The build cache, temporary
# files, the go command's own counters (it keeps them under the user's
# configuration directory) and the binary all live under .bench_build/, so
# nothing outside the checkout is written.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config"
go build -o "$build/benchmark" ./benchmark >&2
exec "$build/benchmark" "$@"
