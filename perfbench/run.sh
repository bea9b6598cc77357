#!/usr/bin/env bash
# Builds the benchmark from the sources in the current checkout and runs
# it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload cold --seed 1 --seconds 25 --trace 0
#
# Every file the build and the run write stays under .bench_build: the Go
# build cache, module path, temp files and the binary itself.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
