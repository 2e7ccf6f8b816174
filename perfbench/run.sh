#!/usr/bin/env bash
# Builds the benchmark and cmd/profiserve from the sources of the
# checkout it is run in, then runs the benchmark with the given flags:
#
#   bash perfbench/run.sh --workload serve-analyze --seed 1 --seconds 8 --trace 0
#
# Run it from the repository root. Everything the build and the runs
# write (Go build cache, binaries, scratch stores, trace files, the
# exact-count records) stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/profiserve" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of a profirt checkout" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/gocache" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	TMPDIR="$build/tmp"

go build -o "$build/bin/profiserve" ./cmd/profiserve >&2
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" -root "$root" -build "$build" "$@"
