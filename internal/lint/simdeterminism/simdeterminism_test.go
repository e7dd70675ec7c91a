package simdeterminism_test

import (
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/simdeterminism"
)

func TestKernelScope(t *testing.T) {
	analysistest.Run(t, "testdata/src/kernel", "repro/internal/sim/fixture", simdeterminism.Analyzer)
}

func TestOutOfScope(t *testing.T) {
	analysistest.Run(t, "testdata/src/outofscope", "repro/internal/netsim/fixture", simdeterminism.Analyzer)
}
