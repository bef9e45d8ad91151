#!/usr/bin/env bash
# Builds cutbench and mincutd from the checkout in the current directory
# into .bench_build/ and runs cutbench with the given arguments. Run it
# from the repository root:
#
#   bash cmd/cutbench/run.sh --workload sparse --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write (Go build cache, the go
# command's telemetry counters, temporary files, mincutd data directories,
# span files) stays under .bench_build/.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C cmd/cutbench build -o "$out/" . repro/cmd/mincutd
exec "$out/cutbench" -mincutd "$out/mincutd" -workdir "$out" "$@"
