#!/usr/bin/env bash
# Builds the serving daemon and the benchmark from this checkout, then runs
# the benchmark with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload stream_http --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build writes (binaries, Go
# build cache, temporary files, span files) goes under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -o "$out/qoserved" ./cmd/qoserved
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -qoserved "$out/qoserved" -out "$out" "$@"
