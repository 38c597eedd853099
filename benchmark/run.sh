#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Compiles the harness with every Go
# cache and temp directory inside the checkout (.bench_build/), then runs it;
# the harness compiles the product binaries the same way. Developers can use
# `go run -C benchmark . [flags]` instead when writing outside the checkout
# is fine.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bin/benchmark" .)
exec "$build/bin/benchmark" -root "$root" "$@"
