#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there; every argument passes through, e.g.
#
#   bash perfbench/run.sh --workload sr-bulk --seed 1 --seconds 10 --trace 0
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
export GOTOOLCHAIN=local
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
(cd "$(dirname "$0")" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
