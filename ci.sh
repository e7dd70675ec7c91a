#!/bin/sh
# CI driver: the tier-1 gate (build + tests), the race pass, then the
# Makefile's lint, chaos, fuzz, smoke and benchmark gates, each command
# list kept once in the Makefile. Usage: ./ci.sh [fuzztime]
set -eu

FUZZTIME="${1:-15s}"

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> make lint (DESIGN.md §8 + §13 invariants, 6 analyzers, plus the repo-clean and golden gates)"
# GOFLAGS is BENCH_GOFLAGS, the flags `make bench` and `make profile`
# use, so the noalloc analyzer's `go build -gcflags=-m` matches
# benchmark conditions (empty by default; export BENCH_GOFLAGS to
# override all three).
make lint

echo "==> go test ./..."
go test ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> make chaos (seeded replica fault schedules under -race)"
make chaos

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
