#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root.
# Everything the build writes (Go's build cache and its telemetry counters
# included) stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/hurricane-benchmark" .) >&2
cd "$root"
exec "$build/hurricane-benchmark" "$@"
