package fault

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/signal"
)

// ReplicaDivergence records one disagreement between replicated
// testability services: a replica whose answer for one query differed
// from the quorum's. Divergences do not fail the run — the majority
// answer is used — but they are surfaced in the Result so a tampered or
// corrupted replica is visible rather than silently out-voted.
type ReplicaDivergence struct {
	// Module is the design instance the service answers for (filled in by
	// the virtual simulator when it drains the service).
	Module string
	// Pattern is the input configuration of the divergent query ("" for a
	// fault-list divergence).
	Pattern string
	// Replica is the index of the disagreeing replica.
	Replica int
	// Detail describes the disagreement.
	Detail string
}

// DivergenceSource is implemented by testability services that can
// report replica disagreements; the virtual simulator drains it into
// Result.Divergences after a run.
type DivergenceSource interface {
	Divergences() []ReplicaDivergence
}

// QuorumTestability serves testability queries from K replicated
// services: every query is issued to all replicas in index order, the
// answers are compared by canonical fingerprint, and the majority answer
// wins (ties break to the lowest replica index — deterministic for any
// replica count). Replicas that error are excluded from the vote and
// recorded as divergent; the query itself fails only when every replica
// errors. Minority answers are recorded as ReplicaDivergence.
//
// The paper's trust model makes this worth having: detection tables are
// the provider's claim about its own component's fault behavior, and
// with the component's structure undisclosed the user cannot audit a
// single answer — but K independent replicas can audit each other.
type QuorumTestability struct {
	svcs []TestabilityService

	mu   sync.Mutex
	divs []ReplicaDivergence
}

// NewQuorumTestability wraps the replica services (at least one).
func NewQuorumTestability(svcs ...TestabilityService) (*QuorumTestability, error) {
	if len(svcs) == 0 {
		return nil, fmt.Errorf("fault: quorum over zero replicas")
	}
	return &QuorumTestability{svcs: svcs}, nil
}

// Divergences implements DivergenceSource: recorded disagreements in
// detection order.
func (q *QuorumTestability) Divergences() []ReplicaDivergence {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]ReplicaDivergence(nil), q.divs...)
}

// diverge records one disagreement.
func (q *QuorumTestability) diverge(pattern string, replica int, detail string) {
	q.mu.Lock()
	q.divs = append(q.divs, ReplicaDivergence{Pattern: pattern, Replica: replica, Detail: detail})
	q.mu.Unlock()
}

// vote runs one query against every replica in index order and returns
// the index of the majority answer's first holder. fps[i] is replica
// i's canonical fingerprint ("" for an errored replica, which never
// wins — a real fingerprint is never empty).
func (q *QuorumTestability) vote(pattern string, query func(i int) (string, error)) (int, error) {
	fps := make([]string, len(q.svcs))
	var firstErr error
	errs := 0
	for i := range q.svcs {
		fp, err := query(i)
		if err != nil {
			errs++
			if firstErr == nil {
				firstErr = err
			}
			q.diverge(pattern, i, fmt.Sprintf("replica error: %v", err))
			continue
		}
		fps[i] = fp
	}
	if errs == len(q.svcs) {
		return -1, fmt.Errorf("fault: all %d quorum replicas failed: %w", len(q.svcs), firstErr)
	}
	// Majority by fingerprint, ties to the lowest index — an index-ordered
	// scan, so the winner is deterministic for any replica count.
	winner, best := -1, 0
	for i, fp := range fps {
		if fp == "" {
			continue
		}
		n := 0
		for _, other := range fps {
			if other == fp {
				n++
			}
		}
		if n > best {
			winner, best = i, n
		}
	}
	for i, fp := range fps {
		if fp != "" && fp != fps[winner] {
			q.diverge(pattern, i, fmt.Sprintf("answer disagrees with quorum (%d/%d replicas)", best, len(q.svcs)-errs))
		}
	}
	return winner, nil
}

// FaultList implements TestabilityService: the majority fault list.
func (q *QuorumTestability) FaultList() ([]string, error) {
	lists := make([][]string, len(q.svcs))
	winner, err := q.vote("", func(i int) (string, error) {
		names, err := q.svcs[i].FaultList()
		if err != nil {
			return "", err
		}
		lists[i] = names
		sorted := append([]string(nil), names...)
		sort.Strings(sorted)
		return "faults|" + strings.Join(sorted, ","), nil
	})
	if err != nil {
		return nil, err
	}
	return lists[winner], nil
}

// DetectionTable implements TestabilityService: the majority table for
// one input configuration.
func (q *QuorumTestability) DetectionTable(inputs []signal.Bit) (*DetectionTable, error) {
	tables := make([]*DetectionTable, len(q.svcs))
	winner, err := q.vote(string(appendLevels(nil, inputs)), func(i int) (string, error) {
		dt, err := q.svcs[i].DetectionTable(inputs)
		if err != nil {
			return "", err
		}
		tables[i] = dt
		return fingerprintTable(dt), nil
	})
	if err != nil {
		return nil, err
	}
	return tables[winner], nil
}

// fingerprintTable renders a detection table canonically: the fault-free
// output plus every row as "output:{sorted faults}", rows sorted by
// output pattern. Two tables describing the same fault behavior
// fingerprint identically regardless of row or fault order.
func fingerprintTable(dt *DetectionTable) string {
	rows := make([]string, len(dt.Rows))
	for i, r := range dt.Rows {
		fs := append([]string(nil), r.Faults...)
		sort.Strings(fs)
		rows[i] = r.Output.String() + ":{" + strings.Join(fs, ",") + "}"
	}
	sort.Strings(rows)
	return "table|good=" + dt.FaultFree.String() + "|" + strings.Join(rows, ";")
}

// appendLevels appends one byte per bit ("0", "1", "X" or "Z"), LSB
// first, to b: the pattern label divergence reports carry.
func appendLevels(b []byte, bits []signal.Bit) []byte {
	for _, v := range bits {
		b = append(b, "01XZ"[v&3])
	}
	return b
}
