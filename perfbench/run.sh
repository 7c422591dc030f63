#!/usr/bin/env bash
# Builds the benchmark and the rrmd daemon from the sources of the checkout
# it is run from (the repository root), then runs the benchmark:
#
#   bash perfbench/run.sh --workload weather --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
# Every directory the go command writes to lies inside the build
# directory; XDG_CONFIG_HOME is where it keeps its telemetry counters.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOENV=off GOFLAGS=
go build -o "$build/rrmd" ./cmd/rrmd
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --rrmd "$build/rrmd" --workdir "$build" "$@"
