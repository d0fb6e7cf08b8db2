#!/usr/bin/env bash
# Builds the benchmark harness from this checkout and runs it from the
# checkout root; every argument goes to the harness, e.g.
#   bash qbench/run.sh --workload read_miss --seed 1 --seconds 10 --trace 0
# Build cache, binary, WAL directories and traces stay under .bench_build/.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build/qbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/qbench" && go build -o "$out/qbench" .)
cd "$root"
exec "$out/qbench" "$@"
