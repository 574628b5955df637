#!/usr/bin/env bash
# Builds hpmpbench from source and runs it with the given arguments, e.g.
#
#   bash cmd/hpmpbench/run.sh --workload replay-walk --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build writes (compiler
# cache, temporary files, the binary) stays under the build directory:
# $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

if [[ ! -f go.mod || ! -f cmd/hpmpbench/go.mod ]]; then
	echo "hpmpbench: run from the repository root (go.mod and cmd/hpmpbench/go.mod not found)" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
mkdir -p "$build/home" "$build/tmp"

export HOME="$build/home"
export XDG_CACHE_HOME="$build/home/.cache"
export XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export GOFLAGS=-mod=mod

go -C cmd/hpmpbench build -o "$build/hpmpbench" .
exec "$build/hpmpbench" "$@"
