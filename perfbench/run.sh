#!/usr/bin/env bash
# Builds zenspecd, zenspec-worker and perfbench from the source tree it is
# run in, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload suite-direct --seed 42 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays under
# .bench_build/ in that root (Go build cache included), so a checkout can be
# benchmarked without touching the rest of the machine.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/zenspecd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the zenspec repository root" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/bin/" ./cmd/zenspecd ./cmd/zenspec-worker
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/runs" "$@"
