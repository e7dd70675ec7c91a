package iplib

import (
	"testing"

	"repro/internal/rmi"
	"repro/internal/security"
)

// Every protocol envelope must take the policy's self-counting fast
// path.
var _ = []rmi.PortCounter{
	CatalogueReq{}, CatalogueResp{}, ComponentSpec{}, BindReq{}, BindResp{},
	EvalReq{}, EvalResp{},
	PowerBatchReq{}, PowerBatchResp{}, TimingBatchReq{}, TimingBatchResp{},
	StaticReq{}, StaticResp{}, FaultListReq{}, FaultListResp{},
	FaultTableReq{}, FaultTableResp{}, TestSetReq{}, TestSetResp{},
	FeesReq{}, FeesResp{},
}

// TestPortValueCountMatchesCanonicalWalk pins every PortValueCount to
// the marshalling policy's canonical metric: the fast path the RMI
// outbound check takes must agree with the per-element walk it
// replaces, for every envelope the wire can carry.
func TestPortValueCountMatchesCanonicalWalk(t *testing.T) {
	for _, p := range binaryPairs() {
		t.Run(p.name, func(t *testing.T) {
			pd, ok := p.in.(rmi.PortData)
			if !ok {
				t.Fatalf("%T does not implement rmi.PortData", p.in)
			}
			pc, ok := p.in.(rmi.PortCounter)
			if !ok {
				t.Fatalf("%T does not implement rmi.PortCounter", p.in)
			}
			want := 0
			for _, v := range pd.PortData() {
				n, err := security.ValueCount(v)
				if err != nil {
					t.Fatalf("canonical walk rejected %T: %v", v, err)
				}
				want += n
			}
			if got := pc.PortValueCount(); got != want {
				t.Errorf("PortValueCount() = %d, canonical walk = %d", got, want)
			}
		})
	}
}
