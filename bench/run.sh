#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments, e.g.
#
#   bash bench/run.sh --workload fig6-grid --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and all scratch files stay under
# .bench_build/ at the root of the checkout; nothing is downloaded.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" -workdir "$out/work" "$@"
