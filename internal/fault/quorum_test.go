package fault

import (
	"fmt"
	"testing"

	"repro/internal/signal"
)

// tamperedService wraps a testability service and corrupts its detection
// tables: the first row of every table loses its first fault — the shape
// of a provider misreporting its component's testability.
type tamperedService struct {
	TestabilityService
}

func (t tamperedService) DetectionTable(inputs []signal.Bit) (*DetectionTable, error) {
	dt, err := t.TestabilityService.DetectionTable(inputs)
	if err != nil {
		return nil, err
	}
	out := &DetectionTable{Input: dt.Input, FaultFree: dt.FaultFree, Rows: append([]DetectionRow(nil), dt.Rows...)}
	if len(out.Rows) > 0 && len(out.Rows[0].Faults) > 0 {
		out.Rows[0] = DetectionRow{Output: out.Rows[0].Output, Faults: out.Rows[0].Faults[1:]}
	}
	return out, nil
}

// erroringService fails every query.
type erroringService struct{}

func (erroringService) FaultList() ([]string, error) {
	return nil, fmt.Errorf("replica down")
}

func (erroringService) DetectionTable([]signal.Bit) (*DetectionTable, error) {
	return nil, fmt.Errorf("replica down")
}

// quorumFig4 builds a Figure 4 design whose IP host answers through a
// quorum over the given replica services, plus a pristine reference run
// of the same patterns.
func quorumFig4(t *testing.T, svcs ...TestabilityService) *VirtualSimulator {
	t.Helper()
	d, err := Figure4Design()
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuorumTestability(svcs...)
	if err != nil {
		t.Fatal(err)
	}
	d.Hosts[0].Service = q
	return d.NewVirtual()
}

// freshFig4Service returns an independent LocalTestability over an
// equivalent copy of the Figure 4 IP component.
func freshFig4Service(t *testing.T) TestabilityService {
	t.Helper()
	d, err := Figure4Design()
	if err != nil {
		t.Fatal(err)
	}
	return d.Hosts[0].Service
}

func fig4Patterns(t *testing.T) [][]signal.Bit {
	t.Helper()
	return [][]signal.Bit{fig4Pattern(t, "1100"), fig4Pattern(t, "1101"), fig4Pattern(t, "0111")}
}

// TestQuorumAgreementMatchesSingle: K healthy replicas agree; the run's
// detections are identical to the single-service run and no divergence
// is recorded.
func TestQuorumAgreementMatchesSingle(t *testing.T) {
	d, err := Figure4Design()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := d.NewVirtual().Run(fig4Patterns(t))
	if err != nil {
		t.Fatal(err)
	}

	vs := quorumFig4(t, freshFig4Service(t), freshFig4Service(t), freshFig4Service(t))
	res, err := vs.Run(fig4Patterns(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Divergences) != 0 {
		t.Fatalf("healthy quorum reported divergences: %+v", res.Divergences)
	}
	assertSameDetections(t, ref, res)
}

// TestQuorumOutvotesTamperedReplica: one of three replicas misreports
// its tables; the majority answer is used (detections match the pristine
// run) and the tampered replica is surfaced as divergent.
func TestQuorumOutvotesTamperedReplica(t *testing.T) {
	d, err := Figure4Design()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := d.NewVirtual().Run(fig4Patterns(t))
	if err != nil {
		t.Fatal(err)
	}

	vs := quorumFig4(t,
		freshFig4Service(t),
		tamperedService{freshFig4Service(t)},
		freshFig4Service(t),
	)
	res, err := vs.Run(fig4Patterns(t))
	if err != nil {
		t.Fatal(err)
	}
	assertSameDetections(t, ref, res)
	if len(res.Divergences) == 0 {
		t.Fatal("tampered replica went unreported")
	}
	for _, dv := range res.Divergences {
		if dv.Replica != 1 {
			t.Errorf("divergence blames replica %d, want 1: %+v", dv.Replica, dv)
		}
		if dv.Module != "IP1" {
			t.Errorf("divergence module %q, want IP1", dv.Module)
		}
		if dv.Pattern == "" {
			t.Errorf("detection-table divergence missing its input pattern: %+v", dv)
		}
	}
}

// TestQuorumToleratesErroringReplica: a dead replica is excluded from
// the vote (recorded as divergent) and the run still completes with the
// healthy majority's answers.
func TestQuorumToleratesErroringReplica(t *testing.T) {
	d, err := Figure4Design()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := d.NewVirtual().Run(fig4Patterns(t))
	if err != nil {
		t.Fatal(err)
	}

	vs := quorumFig4(t, freshFig4Service(t), erroringService{}, freshFig4Service(t))
	res, err := vs.Run(fig4Patterns(t))
	if err != nil {
		t.Fatal(err)
	}
	assertSameDetections(t, ref, res)
	if len(res.Divergences) == 0 {
		t.Fatal("erroring replica went unreported")
	}
}

// TestQuorumAllReplicasFail: when every replica errors the query fails
// loudly instead of inventing an answer.
func TestQuorumAllReplicasFail(t *testing.T) {
	q, err := NewQuorumTestability(erroringService{}, erroringService{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.FaultList(); err == nil {
		t.Fatal("fault list succeeded with every replica down")
	}
	if _, err := q.DetectionTable([]signal.Bit{signal.B1, signal.B0}); err == nil {
		t.Fatal("detection table succeeded with every replica down")
	}
}

// TestQuorumRejectsEmpty: a quorum needs at least one replica.
func TestQuorumRejectsEmpty(t *testing.T) {
	if _, err := NewQuorumTestability(); err == nil {
		t.Fatal("empty quorum accepted")
	}
}

// assertSameDetections compares two runs' detection maps exactly.
func assertSameDetections(t *testing.T, ref, got *Result) {
	t.Helper()
	if got.Total != ref.Total {
		t.Fatalf("fault list size %d, want %d", got.Total, ref.Total)
	}
	if len(got.Detected) != len(ref.Detected) {
		t.Fatalf("detected %d faults, want %d", len(got.Detected), len(ref.Detected))
	}
	for f, pi := range ref.Detected {
		if got.Detected[f] != pi {
			t.Errorf("fault %s first detected by pattern %d, want %d", f, got.Detected[f], pi)
		}
	}
}

// Size returns the replica count.
func (q *QuorumTestability) Size() int { return len(q.svcs) }
