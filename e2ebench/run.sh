#!/usr/bin/env bash
# Builds the end-to-end benchmark and the mptcpd daemon from the source
# tree it is run in, then runs one workload:
#
#   bash e2ebench/run.sh --workload fig4-campaign --seed 1 --seconds 20 --trace 0
#
# Run it from the root of an mptcplab checkout. Every build product,
# cache, store and trace file lands under .bench_build/ in that root.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f e2ebench/go.mod ]]; then
	echo "e2ebench: run from the root of an mptcplab checkout" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
# The Go toolchain's caches and its telemetry counters stay inside the
# checkout too.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd e2ebench && go build -o "$build/bin/e2ebench" . && go build -o "$build/bin/mptcpd" mptcplab/cmd/mptcpd) >&2
exec "$build/bin/e2ebench" --mptcpd "$build/bin/mptcpd" --out "$build/out" "$@"
