#!/bin/sh
# CI driver: the tier-1 gate (build + tests), the repeat and race
# passes, then the Makefile's lint, chaos, fuzz, smoke and benchmark
# gates, each command list kept once in the Makefile.
# Usage: ./ci.sh [fuzztime]
set -eu

FUZZTIME="${1:-15s}"

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> make loc (information, not a gate)"
make loc

echo "==> make lint (DESIGN.md §8 + §13 invariants, 5 analyzers, plus the repo-clean and golden gates)"
# GOFLAGS is BENCH_GOFLAGS, the flags `make bench` and `make profile`
# use, so the noalloc analyzer's `go build -gcflags=-m` matches
# benchmark conditions (empty by default; export BENCH_GOFLAGS to
# override all three).
make lint

echo "==> go test ./..."
go test ./...

echo "==> make repeat (every test twice in one process: order and state dependence)"
make repeat

echo "==> go test -race ./..."
go test -race ./...

echo "==> make chaos (seeded provider fault schedules under -race)"
make chaos

echo "==> make bench-module (vet and test the nested benchmark module: TestSmoke and the golden fingerprints)"
make bench-module

echo "==> make fuzz (${FUZZTIME} per target)"
make fuzz FUZZTIME="${FUZZTIME}"

echo "==> make smoke-bench"
make smoke-bench

echo "==> make loadgen (gocad-loadgen -selftest: 4x MaxSessions storm)"
make loadgen

echo "==> make benchgate (gen-al and fault-2ip, merge-base vs working tree, 6 alternating pairs each)"
make benchgate

echo "==> make vuln (non-blocking advisory)"
make vuln

echo "==> CI green"
