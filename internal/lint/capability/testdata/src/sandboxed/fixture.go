// Package fixture stands in for a sandboxed public-part skeleton
// package (loaded as repro/internal/module/fixture): the import gate
// must reject the os import, the reachability walk must flag the
// wall-clock read behind the exported entry point with its chain, the
// gate must reject internal/security like any other repro package
// outside the sandbox, and genuinely unreachable code must stay silent.
package fixture

import (
	_ "encoding/gob" // want `forbidden capability for downloaded-part code`
	"os"             // want `forbidden capability for downloaded-part code`
	"time"

	// The multi-tenant gateway is provider-operator machinery (admission
	// control, billing, the network listener); downloaded-part code must
	// never reach it.
	_ "repro/internal/gateway" // want `may only depend on other sandboxed packages`

	// There is no run-time sandbox to consult: the security package is
	// provider and transport machinery, outside the sandbox like the
	// gateway.
	_ "repro/internal/security" // want `may only depend on other sandboxed packages`
)

// Part is a downloaded-part skeleton; its exported methods are the
// surface a user design invokes.
type Part struct{}

// HandleEvent is an entry point that reaches the wall clock two hops
// down — the finding must name the full chain.
func (p *Part) HandleEvent() {
	p.meter()
}

func (p *Part) meter() {
	stamp()
}

func stamp() {
	_ = time.Now() // want `sandboxed code reaches time\.Now \(chain: HandleEvent -> meter -> stamp -> time\.Now\)`
}

// Wait only does duration arithmetic on values handed in — representing
// time is legal, observing it is not.
func (p *Part) Wait(d time.Duration) time.Duration {
	return d * 2
}

// orphan is unexported and never called from any entry point, so its
// forbidden call produces no chain finding — the import gate above
// already owns the os import itself.
func orphan() int {
	return os.Getpid()
}
