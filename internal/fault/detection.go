package fault

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/gate"
	"repro/internal/signal"
)

// DetectionTable is the partial representation of a component's
// testability corresponding to ONE input configuration: for that input
// pattern, each row associates an erroneous output pattern with the list
// of symbolic internal faults that would cause it. It is a local,
// IP-sensitive parameter — the provider evaluates it independently for a
// given input pattern and returns it to the user, who uses it for fault
// injection and propagation but learns nothing about the component's
// structure beyond input/output behavior under fault.
//
// DetectionTable implements estim.ParamValue, so it flows through the
// standard estimation machinery (it is "nothing but a local, IP-sensitive
// parameter").
type DetectionTable struct {
	// Input is the input configuration the table corresponds to.
	Input signal.Word
	// FaultFree is the component's good output pattern for Input.
	FaultFree signal.Word
	// Rows maps each erroneous output pattern to the symbolic faults
	// producing it.
	Rows []DetectionRow
}

// DetectionRow is one (erroneous output, fault list) association.
type DetectionRow struct {
	Output signal.Word
	Faults []string
}

// ParamString renders the table compactly for reports.
func (dt *DetectionTable) ParamString() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "in=%s good=%s", dt.Input, dt.FaultFree)
	for _, r := range dt.Rows {
		fmt.Fprintf(&sb, " %s:{%s}", r.Output, strings.Join(r.Faults, ","))
	}
	return sb.String()
}

// IsNull reports false.
func (dt *DetectionTable) IsNull() bool { return false }

// Row returns the row for an erroneous output pattern, if present.
func (dt *DetectionTable) Row(out signal.Word) (DetectionRow, bool) {
	for _, r := range dt.Rows {
		if r.Output.Equal(out) {
			return r, true
		}
	}
	return DetectionRow{}, false
}

// OutputFor returns the erroneous output pattern associated with a
// symbolic fault, if the fault is excited by this input configuration.
func (dt *DetectionTable) OutputFor(fault string) (signal.Word, bool) {
	for _, r := range dt.Rows {
		for _, f := range r.Faults {
			if f == fault {
				return r.Output, true
			}
		}
	}
	return signal.Word{}, false
}

// Faults returns all symbolic faults excited by this input configuration.
func (dt *DetectionTable) Faults() []string {
	var out []string
	for _, r := range dt.Rows {
		out = append(out, r.Faults...)
	}
	sort.Strings(out)
	return out
}

// TestabilityService is the provider-side interface of virtual fault
// simulation: phase one publishes the symbolic fault list; phase two
// answers per-pattern detection-table queries. The local implementation
// below wraps a netlist directly; internal/provider exposes the same
// interface across the network.
type TestabilityService interface {
	// FaultList returns the component's symbolic fault list.
	FaultList() ([]string, error)
	// DetectionTable returns the detection table for one input
	// configuration (component inputs in port order). inputs is valid
	// only for the duration of the call: the virtual simulator reuses
	// it for the next pattern.
	DetectionTable(inputs []signal.Bit) (*DetectionTable, error)
}

// LocalTestability serves testability queries from a private netlist —
// the code that runs on the IP provider's server. Construction
// precomputes the collapsed fault list; each DetectionTable call runs one
// bit-parallel stuck-at sweep over the component alone.
type LocalTestability struct {
	nl   *gate.Netlist
	list *SymbolicList
	// mu guards everything below: one service instance may be shared
	// across hosts, and the virtual simulator queries hosts concurrently.
	mu sync.Mutex
	// ev is the sweep evaluator, reused by every query.
	ev *gate.LaneEvaluator
	// rowOf and rowIdx are query scratch: the row of the table each
	// fault of the list falls in (-1 when not excited), and the row of
	// each erroneous output.
	rowOf  []int32
	rowIdx map[signal.Word]int32
	// cache maps input words to computed tables; detection tables
	// depend only on the input configuration, so the provider can serve
	// repeated patterns (the paper's example: patterns 1100 and 1101 lead
	// to the same component inputs) without recomputation. It holds at
	// most detectionCacheCap tables: order lists the keys in insertion
	// order and next indexes the oldest once the cache is full.
	cache map[signal.Word]*DetectionTable
	order []signal.Word
	next  int
}

// detectionCacheCap bounds the detection tables one LocalTestability
// keeps. The service is shared process-wide by a provider, so without a
// bound a long-running server would keep a table for every input
// configuration any client ever asked for.
const detectionCacheCap = 1024

// NewLocalTestability returns a testability service over the netlist.
// With internalOnly set, the published fault list excludes pure port
// faults (the usual configuration: port faults belong to the user's side
// of the boundary). Input and output configurations are words, so a
// netlist with more than signal.MaxWordWidth inputs or outputs is an
// error.
func NewLocalTestability(nl *gate.Netlist, policy Naming, internalOnly bool) (*LocalTestability, error) {
	ev, err := nl.NewLaneEvaluator()
	if err != nil {
		return nil, err
	}
	if in, out := len(nl.Inputs()), len(nl.Outputs()); in > signal.MaxWordWidth || out > signal.MaxWordWidth {
		return nil, fmt.Errorf("fault: component %s has %d inputs and %d outputs; detection tables hold at most %d of each",
			nl.Name, in, out, signal.MaxWordWidth)
	}
	list := buildSymbolicList(nl, policy, internalOnly)
	return &LocalTestability{
		nl:     nl,
		ev:     ev,
		list:   list,
		rowOf:  make([]int32, len(list.faults)),
		rowIdx: make(map[signal.Word]int32),
		cache:  make(map[signal.Word]*DetectionTable),
	}, nil
}

// Symbolic returns the underlying symbolic list (provider-side use).
func (lt *LocalTestability) Symbolic() *SymbolicList { return lt.list }

// FaultList implements TestabilityService.
func (lt *LocalTestability) FaultList() ([]string, error) { return lt.list.Names(), nil }

// DetectionTable implements TestabilityService: it computes, for the
// given component input configuration, the component's fault-free output
// and every erroneous output pattern reachable under a single internal
// stuck-at fault, grouped by output pattern.
func (lt *LocalTestability) DetectionTable(inputs []signal.Bit) (*DetectionTable, error) {
	if len(inputs) != len(lt.nl.Inputs()) {
		return nil, fmt.Errorf("fault: component %s has %d inputs, got %d",
			lt.nl.Name, len(lt.nl.Inputs()), len(inputs))
	}
	// The whole computation runs under the lock: concurrent callers with
	// the same pattern coalesce on one sweep, and the evaluator and
	// scratch are never raced.
	lt.mu.Lock()
	defer lt.mu.Unlock()
	key := signal.WordFromBits(inputs)
	if dt, ok := lt.cache[key]; ok {
		return dt, nil
	}
	dt := &DetectionTable{Input: key}
	clear(lt.rowIdx)
	// The sweep visits only the faults that change the outputs; every
	// other fault is not excited by this input.
	for i := range lt.rowOf {
		lt.rowOf[i] = -1
	}
	err := lt.ev.SweepStuckAt(inputs, lt.list.faults, func(i int, out []signal.Bit) {
		bad := signal.WordFromBits(out)
		if i < 0 {
			dt.FaultFree = bad
			return
		}
		if !bad.Known() {
			return // unresolvable by this input
		}
		r, ok := lt.rowIdx[bad]
		if !ok {
			r = int32(len(dt.Rows))
			lt.rowIdx[bad] = r
			dt.Rows = append(dt.Rows, DetectionRow{Output: bad})
		}
		lt.rowOf[i] = r
	})
	if err != nil {
		return nil, err
	}
	// The rows' fault lists are consecutive windows of one slice, each
	// filled in list order and then sorted.
	ends := make([]int, len(dt.Rows))
	for _, r := range lt.rowOf {
		if r >= 0 {
			ends[r]++
		}
	}
	total := 0
	for r, n := range ends {
		total += n
		ends[r] = total
	}
	names := make([]string, total)
	for i := len(lt.rowOf) - 1; i >= 0; i-- {
		if r := lt.rowOf[i]; r >= 0 {
			ends[r]--
			names[ends[r]] = lt.list.names[i]
		}
	}
	for r := range dt.Rows {
		end := total
		if r+1 < len(ends) {
			end = ends[r+1]
		}
		faults := names[ends[r]:end:end]
		sort.Strings(faults)
		dt.Rows[r].Faults = faults
	}
	lt.remember(key, dt)
	return dt, nil
}

// remember caches a computed table, evicting the oldest once the cache
// holds detectionCacheCap tables. The caller holds lt.mu.
func (lt *LocalTestability) remember(key signal.Word, dt *DetectionTable) {
	if len(lt.order) < detectionCacheCap {
		lt.order = append(lt.order, key)
	} else {
		delete(lt.cache, lt.order[lt.next])
		lt.order[lt.next] = key
		lt.next = (lt.next + 1) % detectionCacheCap
	}
	lt.cache[key] = dt
}
