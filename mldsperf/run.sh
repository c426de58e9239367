#!/usr/bin/env bash
# Builds the MLDS benchmark from the sources of the checkout it sits in and
# runs it, passing every argument on:
#
#   bash mldsperf/run.sh --workload local-mix --seed 1 --seconds 15 --trace 0
#
# The Go build cache, the binary and the run's scratch files all stay under
# .bench_build/ at the checkout root. Without the repository around it (no
# ../go.mod) the build fails and the script exits non-zero.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" \
	GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd mldsperf && go build -buildvcs=false -o "$out/mldsperf" .)
if [ -d .git ]; then
	MLDSPERF_GIT_REV="$(git rev-parse HEAD 2>/dev/null || true)"
	export MLDSPERF_GIT_REV
fi
exec "$out/mldsperf" "$@"
