// Package fixture carries the same violations as the kernel fixture but
// is loaded under repro/internal/netsim/fixture — outside the analyzer's
// scope — and must produce no findings: the network emulator and other
// host-side code may read the wall clock.
package fixture

import (
	"math/rand"
	"time"
)

func wallClock() time.Time { return time.Now() }

func globalSource() int { return rand.Intn(6) }
