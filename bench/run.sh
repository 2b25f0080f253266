#!/usr/bin/env bash
# Builds bench/mjperf from source inside the checkout and runs it with the
# arguments given. Everything the build writes (binary, Go build cache)
# goes under .bench_build at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
# The benchmark may write only inside its checkout: keep Go's caches there.
export GOCACHE="$build/gocache" GOPATH="$build/gopath"
# bench/ is a module of its own whose only requirement is the directory
# above it, so the build needs neither network nor a newer toolchain, and a
# go.work or GOFLAGS of whoever runs it must not reach it.
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/bench" && go build -o "$build/mjperf" ./mjperf)
cd "$root"
exec "$build/mjperf" "$@"
