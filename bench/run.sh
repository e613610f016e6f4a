#!/usr/bin/env bash
# Builds the benchmark from the source tree it is run in and runs it
# with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh                                   # all workloads, default seed
#   bash bench/run.sh --workload fleet-cold --seed 7 --seconds 10 --trace 1
#
# The build cache, the binary, scratch data and trace files all stay
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOPROXY=off GOTOOLCHAIN=local \
	GOFLAGS=-buildvcs=false
(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
