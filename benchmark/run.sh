#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the checkout
# root. Everything Go writes (build cache, binary) stays under .bench_build,
# so a run touches nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/lockbench" .
cd "$root"
exec "$build/lockbench" "$@"
