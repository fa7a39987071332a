#!/usr/bin/env bash
# Builds the benchmark and cmd/augserve from source, then runs one workload.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload solve-band --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# working directory: the Go build cache, the two binaries and the per-run
# temp files. The last line of standard output is the run's JSON result;
# build output goes to standard error, so a failed build prints no result
# and exits non-zero.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOTELEMETRY=off CGO_ENABLED=0

(cd perfbench && go build -o "$out/bin/" . repro/cmd/augserve) >&2

exec "$out/bin/perfbench" "$@" --augserve "$out/bin/augserve" --workdir "$out/tmp"
