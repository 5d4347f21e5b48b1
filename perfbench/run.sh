#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# for example:
#
#   bash perfbench/run.sh --workload kv-open --seed 1 --seconds 10 --trace 0
#
# Run it from the root of a charmgo checkout. The Go build cache, module
# cache, temporary files and tool configuration all stay under
# .bench_build/ in the checkout, so nothing is written elsewhere.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/core || ! -d perfbench ]]; then
	echo "perfbench: run from the root of a charmgo checkout (go.mod and internal/ not found)" >&2
	exit 2
fi

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly

go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
