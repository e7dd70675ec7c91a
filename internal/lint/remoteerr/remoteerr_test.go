package remoteerr_test

import (
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/remoteerr"
)

func TestRemoteErrors(t *testing.T) {
	analysistest.Run(t, "testdata/src/remote", "repro/fixture/remote", remoteerr.Analyzer)
}

// TestRemoteErrorsInsideRemotePackage: a remote package that drops the
// error of another package's call is flagged like any other caller.
func TestRemoteErrorsInsideRemotePackage(t *testing.T) {
	analysistest.Run(t, "testdata/src/iplibish", "repro/internal/iplib/fixture", remoteerr.Analyzer)
}
