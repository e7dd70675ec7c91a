#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it with the given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload mr-local --seed 7 --seconds 20 --trace 0
#   bash benchmark/run.sh compare set-a.jsonl set-b.jsonl
#
# Everything the build and the run write (the binary, the Go build cache,
# scratch files) stays under .bench_build/ in the current directory. The
# benchmark is its own Go module (benchmark/go.mod) whose replace
# directive points at the repository root, so outside a full checkout the
# build, and so this script, fails.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C benchmark build -o "$out/gocad-bench" .
exec "$out/gocad-bench" "$@"
