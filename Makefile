GO ?= go
FUZZTIME ?= 15s
BENCHTIME ?= 1s
BENCHDATE := $(shell date +%Y-%m-%d)

# BENCH_GOFLAGS is the GOFLAGS value shared by `make bench`,
# `make profile` and `make lint`: the noalloc analyzer shells out to
# `go build -gcflags=-m` with the inherited environment, so running all
# three under the same flags keeps the escape analysis the lint gate
# sees identical to the conditions the benchmarks measure.
BENCH_GOFLAGS ?=

.PHONY: all build test race fuzz vet lint loc vuln bench benchgate smoke-bench loadgen profile chaos ci clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 CI gate: the full suite under the race detector.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis: the gocad-lint suite machine-checks
# the kernel's determinism, RMI-safety, capability-sandbox,
# wire-codec-symmetry and no-alloc invariants (DESIGN.md §8 and
# §13). Zero findings is a hard CI gate; -timings surfaces the load and
# per-analyzer wall time. GOFLAGS matches `make bench` so the noalloc
# escape analysis sees benchmark conditions.
lint:
	GOFLAGS="$(BENCH_GOFLAGS)" $(GO) run ./cmd/gocad-lint -timings ./...
	GOFLAGS="$(BENCH_GOFLAGS)" $(GO) test -count=1 -run='TestRepoIsClean|TestNoGobImports|TestNoHTTPInServingCore|TestGolden|TestCodecParity' ./internal/lint/... ./internal/core/ ./internal/iplib/ ./internal/fault/ ./internal/ppp/ ./internal/wire/

# Non-test Go lines, testdata/ and .bench_build/ excluded: the one
# reproducible size count for changes that delete code. Information
# only, never a gate.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.bench_build/*' -print0 \
		| xargs -0 cat | wc -l | awk '{print "non-test Go lines:", $$1}'

# Non-blocking dependency-vulnerability advisory; skipped silently when
# govulncheck is not installed (it is not vendored).
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "govulncheck: advisory findings above (non-blocking)"; \
	else \
		echo "govulncheck not installed; skipping advisory scan"; \
	fi

# Live benchmark gate: gen-al and fault-2ip on the merge-base with
# origin/main and on the working tree, six alternating pairs each on
# this host, judged by `benchmark/run.sh compare` under BENCHMARK.json's
# bounds (exit 1 on a REGRESSION). It resolves kernel, module and
# virtual fault simulation slowdowns larger than the 20% op_ms_p10
# bound. Needs the base commit in the local history.
benchgate:
	bash benchgate.sh

# Short deterministic fuzz smoke over the RMI wire codec, the event
# queue, the bit-parallel stuck-at sweep, netlist snapshot decoding, the
# batched power and timing steps, provider dispatch of untrusted
# payloads, client decoding of untrusted responses and the gateway's
# tenant config. This is the one fuzz list:
# ci.sh and the workflow call `make fuzz FUZZTIME=...`. Each target must
# run in its own invocation (go test allows one -fuzz at a time).
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzBinaryCodec$$' -fuzztime=$(FUZZTIME) ./internal/rmi/
	$(GO) test -run='^$$' -fuzz='^FuzzBinaryDecode$$' -fuzztime=$(FUZZTIME) ./internal/rmi/
	$(GO) test -run='^$$' -fuzz='^FuzzMuxResponses$$' -fuzztime=$(FUZZTIME) ./internal/rmi/
	$(GO) test -run='^$$' -fuzz='^FuzzMuxFaultyConn$$' -fuzztime=$(FUZZTIME) ./internal/rmi/
	$(GO) test -run='^$$' -fuzz='^FuzzQueueOrdering$$' -fuzztime=$(FUZZTIME) ./internal/sim/
	$(GO) test -run='^$$' -fuzz='^FuzzSweepStuckAt$$' -fuzztime=$(FUZZTIME) ./internal/gate/
	$(GO) test -run='^$$' -fuzz='^FuzzNetlistSnapshot$$' -fuzztime=$(FUZZTIME) ./internal/gate/
	$(GO) test -run='^$$' -fuzz='^FuzzStepBatch$$' -fuzztime=$(FUZZTIME) ./internal/ppp/
	$(GO) test -run='^$$' -fuzz='^FuzzProviderDispatch$$' -fuzztime=$(FUZZTIME) ./internal/provider/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeResponses$$' -fuzztime=$(FUZZTIME) ./internal/iplib/
	$(GO) test -run='^$$' -fuzz='^FuzzLoadTenantConfig$$' -fuzztime=$(FUZZTIME) ./internal/gateway/

# Deterministic chaos sweep under the race detector: seeded replica
# fault schedules (kill, partition, slow-drip, flap) across replica
# counts and pipeline depths, every cell asserting
# bit-identical results while one replica stays healthy and explicit
# degradation when none does. The Faulted tests kill one provider
# connection at scripted writes and assert the session replay heals it
# bit-identically. Seeded and bounded — a red run is a real regression,
# never flake. The stop-path sweep repeats every Drain, Close and Serve
# test ten times: stop paths are where goroutine leaks and ordering
# races hide, and one race-detector pass rarely catches them.
chaos:
	$(GO) test -race -count=1 -run='Chaos|CatchUp|Failover|Quorum|Faulted' ./internal/core/ ./internal/netsim/ ./internal/fault/
	$(GO) test -race -count=1 ./internal/replica/
	$(GO) test -race -count=10 -run='Drain|Close|Serve' ./internal/rmi/ ./internal/gateway/... ./internal/provider/

# CPU and heap profiles of the hottest Table 2 scenario (MR on the
# emulated-local profile: full simulator client, real RMI marshalling,
# no network transit — the kernel and fault-path costs dominate).
# Profiles land in gitignored profiles/; inspect with
#   go tool pprof profiles/cpu.out
profile:
	@mkdir -p profiles
	GOFLAGS="$(BENCH_GOFLAGS)" $(GO) test -run='^$$' -bench='BenchmarkTable2Scenarios/MR-local' \
		-benchtime=$(BENCHTIME) -cpuprofile=profiles/cpu.out -memprofile=profiles/heap.out .
	@echo "profiles written to profiles/cpu.out and profiles/heap.out"

# The repo benchmark (benchmark/, BENCHMARK.json): every workload in
# BENCHMARK.json order at its default size, each result record appended
# to one dated JSON-lines file that `bash benchmark/run.sh compare` reads.
bench:
	@for w in mr-local er-wan gen-al fault-2ip gw-sessions; do \
		GOFLAGS="$(BENCH_GOFLAGS)" bash benchmark/run.sh --workload $$w --out .bench_build/bench-$(BENCHDATE).jsonl || exit 1; \
	done
	@echo "benchmark records appended to .bench_build/bench-$(BENCHDATE).jsonl"

# Quick CI smoke: the kernel, fault-simulation (with the provider's
# detection-table sweep and the fault-2ip design build), Simulation
# (single and concurrent runs) and RMI call-path (serial and pipelined)
# benchmarks, one short iteration each — catches crashes and gross
# regressions, not noise.
smoke-bench:
	$(GO) test -run='^$$' -bench='SchedulerThroughput|VirtualVsSerialFaultSim|Figure4VirtualFaultSim|DetectionTable|RandomTwoIPDesign|GeneratedDesign|ConcurrentSetups|RMIRoundTrip|RMIPipeline' -benchmem -benchtime=100x .

# Gateway load smoke: gocad-loadgen storms an in-process gateway at 4x
# MaxSessions and asserts the admission-control contract end to end —
# bit-identical fingerprints for admitted sessions, typed prompt
# rejections for the rest, and /metrics + billing-ledger counters that
# reconcile exactly with the client-side counts. Prints sessions/sec
# and call latency percentiles (p50/p99/p999).
loadgen:
	$(GO) run ./cmd/gocad-loadgen -selftest

ci: build vet loc lint test race chaos fuzz smoke-bench loadgen benchgate vuln

clean:
	$(GO) clean ./...
