// Package fixture stands in for a remote package (loaded as
// repro/internal/iplib/fixture): inside the remote packages only calls
// into the caller's own package are exempt, so a dropped error from the
// transport below is still a finding.
package fixture

import "repro/internal/rmi"

type stub struct{ rpc *rmi.Client }

func (s *stub) table() {
	s.rpc.Call("ip.table", nil, nil) // want "error from .*rmi.*Call discarded"
}

func (s *stub) acknowledged() {
	_ = s.rpc.Call("ip.table", nil, nil)
}

func (s *stub) own() {
	s.flush()
}

func (s *stub) flush() error { return nil }
