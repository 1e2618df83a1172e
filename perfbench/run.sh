#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository
# root, passing every argument through:
#
#   bash perfbench/run.sh --workload venice-fit --seed 1 --seconds 25 --trace 0
#
# The go command's cache, module path and configuration are kept in
# .bench_build, so a run writes nothing outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
