#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments (see main.go for the flags). Run from the repository
# root:
#
#   bash perfbench/run.sh --workload quest1-mine --seed 1 --seconds 20 --trace 0
#
# Every build product and cache stays under .bench_build/ in the
# current directory. Outside a full checkout (no ../go.mod next to
# perfbench/) the build fails and the script exits nonzero without a
# result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out"
# The go command's own config and telemetry files go there too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export GOWORK=off

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" --trace-dir "$out/traces" "$@"
