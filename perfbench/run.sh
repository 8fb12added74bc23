#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload ingest-zipf --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root.  Every build artefact and Go cache goes
# under .bench_build/ in that root, and the toolchain never reaches for the
# network.  Without the repository's sources beside it the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOENV=off \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"

(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
