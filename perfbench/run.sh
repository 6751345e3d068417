#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository
# root, passing every argument through:
#
#   bash perfbench/run.sh --workload xmark-cold --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, the go command's temporary and
# telemetry files, and span files stay under .bench_build/ in the
# checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
