#!/usr/bin/env bash
# Builds the benchmark and the sweepd server from the source tree it
# sits in, then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload cwf-stream --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Builds, the Go build cache and the
# run's scratch files all stay under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# Keep every file the toolchain writes (build cache, temporaries, the
# user config directory holding Go telemetry) inside .bench_build/.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-buildvcs=false GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
go build -o "$out/sweepd" ./cmd/sweepd >&2
exec "$out/perfbench" -sweepd "$out/sweepd" -work "$out/work" -trace-dir "$out/trace" "$@"
