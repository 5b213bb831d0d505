#!/usr/bin/env bash
# Builds iprism-serve and the benchmark harness from source into
# .bench_build/ under the current directory (the repository root), then
# runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload session_replay --seed 1 --seconds 20 --trace 0
#
# Every file the toolchain and the benchmark write stays under
# .bench_build/. The build fails, and the script exits non-zero without a
# result, when the repository sources are not present.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/gocache" "$build/gopath" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOWORK=off
export GOPROXY=off
export GOTOOLCHAIN=local
export GOTELEMETRY=off
export CGO_ENABLED=0

go build -o "$build/bin/iprism-serve" ./cmd/iprism-serve
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" "$@"
