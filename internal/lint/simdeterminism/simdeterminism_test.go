package simdeterminism_test

import (
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/simdeterminism"
)

func TestKernelScope(t *testing.T) {
	analysistest.Run(t, "testdata/src/kernel", "repro/internal/sim/fixture", simdeterminism.Analyzer)
}

// TestReplicaScope pins the breaker-clock invariant: in the replica
// package a time.Now CALL is flagged (it defeats the injected Clock the
// chaos harness freezes), while naming time.Now as a value — the
// production Clock default — stays legal.
func TestReplicaScope(t *testing.T) {
	analysistest.Run(t, "testdata/src/breaker", "repro/internal/replica/fixture", simdeterminism.Analyzer)
}

func TestOutOfScope(t *testing.T) {
	analysistest.Run(t, "testdata/src/outofscope", "repro/internal/trace/fixture", simdeterminism.Analyzer)
}
