package capability_test

import (
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/capability"
)

func TestSandboxedFixture(t *testing.T) {
	analysistest.Run(t, "testdata/src/sandboxed", "repro/internal/module/fixture", capability.Analyzer)
}

func TestOutOfScopeFixture(t *testing.T) {
	analysistest.Run(t, "testdata/src/outofscope", "repro/internal/netsim/fixture", capability.Analyzer)
}
