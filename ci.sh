#!/bin/sh
# CI driver: the tier-1 gate (build + tests), the race pass, and a short
# fuzz smoke of the RMI wire codec. Usage: ./ci.sh [fuzztime]
set -eu

FUZZTIME="${1:-15s}"

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> gocad-lint ./... (DESIGN.md §8 + §13 invariants, 8 analyzers)"
# -timings surfaces the shared package-load cost and each analyzer's
# wall time in the CI log. GOFLAGS is inherited by the noalloc
# analyzer's `go build -gcflags=-m`, matching `make bench` conditions
# (both default to empty; export BENCH_GOFLAGS-style overrides to both).
go run ./cmd/gocad-lint -timings ./...

echo "==> go test ./..."
go test ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> chaos sweep (seeded replica fault schedules under -race)"
go test -race -count=1 -run='Chaos|Hedged|Failover|Quorum' ./internal/core/ ./internal/netsim/ ./internal/fault/
go test -race -count=1 ./internal/replica/

echo "==> sharded-execution determinism matrix under -race"
go test -race -count=1 -run='Shard|Partition|Generate' ./internal/shard/ ./internal/core/

echo "==> fuzz smoke (${FUZZTIME} per target)"
go test -run='^$' -fuzz='^FuzzBinaryCodec$' -fuzztime="${FUZZTIME}" ./internal/rmi/
go test -run='^$' -fuzz='^FuzzBinaryDecode$' -fuzztime="${FUZZTIME}" ./internal/rmi/
go test -run='^$' -fuzz='^FuzzMuxResponses$' -fuzztime="${FUZZTIME}" ./internal/rmi/
go test -run='^$' -fuzz='^FuzzMuxFaultyConn$' -fuzztime="${FUZZTIME}" ./internal/rmi/
go test -run='^$' -fuzz='^FuzzPartitionCircuit$' -fuzztime="${FUZZTIME}" ./internal/shard/
go test -run='^$' -fuzz='^FuzzQueueOrdering$' -fuzztime="${FUZZTIME}" ./internal/sim/
go test -run='^$' -fuzz='^FuzzSweepStuckAt$' -fuzztime="${FUZZTIME}" ./internal/gate/

echo "==> benchmark smoke"
go test -run='^$' -bench='SchedulerThroughput|VirtualVsSerialFaultSim|Figure4VirtualFaultSim' -benchmem -benchtime=100x .

echo "==> gateway load smoke (gocad-loadgen -selftest: 4x MaxSessions storm)"
go run ./cmd/gocad-loadgen -selftest

echo "==> benchdiff advisory (non-blocking)"
# Compare the two most recent benchmark snapshots, if present. The diff
# is advisory: benchmark machines are noisy, so a regression report asks
# for a human read, not a red build. Run `make bench` to cut a snapshot.
set -- $(ls -1 BENCH_*.json 2>/dev/null | sort | tail -2)
if [ "$#" -eq 2 ]; then
	go run ./cmd/benchdiff "$1" "$2" || echo "benchdiff: regressions reported above (non-blocking)"

	echo "==> kernel benchmark gate (blocking; SKIP_KERNEL_BENCH_GATE=1 to bypass)"
	# The event-kernel benchmarks (scheduler throughput, arena token
	# delivery) are single-threaded, allocation-free hot loops with low
	# run-to-run noise, so for them the benchdiff is a hard gate, not an
	# advisory. benchdiff has no name filter; grep the snapshot lines for
	# the kernel benchmarks instead (benchdiff skips non-matching lines).
	# Set SKIP_KERNEL_BENCH_GATE=1 to bypass on a known-noisy machine.
	if [ "${SKIP_KERNEL_BENCH_GATE:-0}" = "1" ]; then
		echo "kernel benchmark gate skipped (SKIP_KERNEL_BENCH_GATE=1)"
	else
		kold=$(mktemp) && knew=$(mktemp)
		trap 'rm -f "$kold" "$knew"' EXIT
		grep -E 'Benchmark(SchedulerThroughput|ArenaTokenDelivery)' "$1" > "$kold" || true
		grep -E 'Benchmark(SchedulerThroughput|ArenaTokenDelivery)' "$2" > "$knew" || true
		go run ./cmd/benchdiff "$kold" "$knew"
	fi
else
	echo "fewer than two BENCH_*.json snapshots; skipping benchdiff"
fi

echo "==> govulncheck advisory (non-blocking)"
if command -v govulncheck >/dev/null 2>&1; then
	govulncheck ./... || echo "govulncheck: advisory findings above (non-blocking)"
else
	echo "govulncheck not installed; skipping advisory scan"
fi

echo "==> CI green"
