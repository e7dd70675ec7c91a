// Package fixture stands in for a package outside the sandboxed set
// (loaded as repro/internal/netsim/fixture): the same patterns the
// sandboxed fixture flags must produce no findings here, because the
// capability check binds downloaded-part code only.
package fixture

import (
	"os"
	"time"
)

// Snapshot freely reads the wall clock and the environment: tooling
// outside the sandbox keeps its host capabilities.
func Snapshot() (time.Time, string) {
	return time.Now(), os.Getenv("HOME")
}
