#!/usr/bin/env bash
# Builds the benchmark from source and runs it, e.g.
#
#   bash perfbench/run.sh --workload file-replay --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and any
# spans a traced run writes stay under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root; go.mod or perfbench/go.mod is missing" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
