// Package registry enumerates the gocad-lint analyzer suite in one
// place, so the command, the CI gate and the repo-cleanliness test all
// run exactly the same checks. It lives apart from package lint to keep
// the framework free of analyzer imports (and the analyzers free of
// each other).
package registry

import (
	"repro/internal/lint"
	"repro/internal/lint/capability"
	"repro/internal/lint/lockheldrmi"
	"repro/internal/lint/noalloc"
	"repro/internal/lint/remoteerr"
	"repro/internal/lint/simdeterminism"
)

// All returns the full analyzer suite in its canonical order.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{
		simdeterminism.Analyzer,
		lockheldrmi.Analyzer,
		remoteerr.Analyzer,
		capability.Analyzer,
		noalloc.Analyzer,
	}
}
