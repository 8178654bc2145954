#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build and runs
# it from the checkout's root, so nothing is read or written outside the
# checkout (the Go build cache lives there too). Arguments go to the
# benchmark: see main.go.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
