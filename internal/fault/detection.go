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
	// configuration (component inputs in port order).
	DetectionTable(inputs []signal.Bit) (*DetectionTable, error)
}

// LocalTestability serves testability queries from a private netlist —
// the code that runs on the IP provider's server. Construction
// precomputes the collapsed fault list; each DetectionTable call runs one
// bit-parallel stuck-at sweep over the component alone.
type LocalTestability struct {
	nl   *gate.Netlist
	list *SymbolicList
	// faults holds the internal fault behind each symbolic name, in
	// publication order.
	faults []gate.Fault
	// mu guards everything below: one service instance may be shared
	// across hosts, and the virtual simulator queries hosts concurrently.
	mu sync.Mutex
	// ev is the sweep evaluator, created on the first query and reused.
	ev *gate.Evaluator
	// cache maps packed input words to computed tables; detection tables
	// depend only on the input configuration, so the provider can serve
	// repeated patterns (the paper's example: patterns 1100 and 1101 lead
	// to the same component inputs) without recomputation. It holds at
	// most detectionCacheCap tables: order lists the keys in insertion
	// order and next indexes the oldest once the cache is full.
	cache map[string]*DetectionTable
	order []string
	next  int
	// key is scratch for the packed cache key, so a cache hit allocates
	// nothing.
	key []byte
}

// detectionCacheCap bounds the detection tables one LocalTestability
// keeps. The service is shared process-wide by a provider, so without a
// bound a long-running server would keep a table for every input
// configuration any client ever asked for.
const detectionCacheCap = 1024

// NewLocalTestability returns a testability service over the netlist.
// With internalOnly set, the published fault list excludes pure port
// faults (the usual configuration: port faults belong to the user's side
// of the boundary).
func NewLocalTestability(nl *gate.Netlist, policy Naming, internalOnly bool) (*LocalTestability, error) {
	if err := nl.Build(); err != nil {
		return nil, err
	}
	list := buildSymbolicList(nl, policy, internalOnly)
	faults := make([]gate.Fault, len(list.names))
	for i, name := range list.names {
		faults[i] = list.toFault[name]
	}
	return &LocalTestability{
		nl:     nl,
		list:   list,
		faults: faults,
		cache:  make(map[string]*DetectionTable),
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
	lt.key = appendLevels(lt.key[:0], inputs)
	if dt, ok := lt.cache[string(lt.key)]; ok {
		return dt, nil
	}
	if lt.ev == nil {
		ev, err := lt.nl.NewEvaluator()
		if err != nil {
			return nil, err
		}
		lt.ev = ev
	}
	dt := &DetectionTable{Input: signal.Word{Bits: append([]signal.Bit(nil), inputs...)}}
	var good signal.Word
	var rowKey []byte
	rowIdx := make(map[string]int) // packed erroneous output → row
	err := lt.ev.SweepStuckAt(inputs, lt.faults, func(i int, out []signal.Bit) {
		bad := signal.Word{Bits: out}
		if i < 0 {
			good = bad
			dt.FaultFree = bad.Clone()
			return
		}
		if bad.Equal(good) || !bad.Known() {
			return // fault not excited (or unresolvable) by this input
		}
		name := lt.list.names[i]
		rowKey = appendLevels(rowKey[:0], out)
		if r, ok := rowIdx[string(rowKey)]; ok {
			dt.Rows[r].Faults = append(dt.Rows[r].Faults, name)
			return
		}
		rowIdx[string(rowKey)] = len(dt.Rows)
		dt.Rows = append(dt.Rows, DetectionRow{Output: bad.Clone(), Faults: []string{name}})
	})
	if err != nil {
		return nil, err
	}
	for i := range dt.Rows {
		sort.Strings(dt.Rows[i].Faults)
	}
	lt.remember(string(lt.key), dt)
	return dt, nil
}

// remember caches a computed table, evicting the oldest once the cache
// holds detectionCacheCap tables. The caller holds lt.mu.
func (lt *LocalTestability) remember(key string, dt *DetectionTable) {
	if len(lt.order) < detectionCacheCap {
		lt.order = append(lt.order, key)
	} else {
		delete(lt.cache, lt.order[lt.next])
		lt.order[lt.next] = key
		lt.next = (lt.next + 1) % detectionCacheCap
	}
	lt.cache[key] = dt
}

// appendLevels appends one byte per bit ("0", "1", "X" or "Z") to b: a
// compact map key for a bit vector.
func appendLevels(b []byte, bits []signal.Bit) []byte {
	for _, v := range bits {
		b = append(b, "01XZ"[v&3])
	}
	return b
}
