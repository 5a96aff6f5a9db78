#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout it is run from and
# runs it with the arguments given. The build cache, the binary and
# whatever the daemon under test writes all stay under .bench_build/.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go build -C bench -o "$build/wirebench" .
exec "$build/wirebench" -tmp "$build/tmp" "$@"
