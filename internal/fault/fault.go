// Package fault implements gocad's testability machinery: single
// stuck-at fault models over gate-level netlists, structural fault
// collapsing, symbolic fault lists, per-pattern detection tables, a
// full-disclosure serial fault simulator (the reference an IP owner could
// run on its own flattened design), and the paper's headline extension —
// VIRTUAL FAULT SIMULATION, the two-phase client/provider protocol that
// evaluates the fault coverage of a design containing IP components
// without the provider disclosing the netlist and without the user
// disclosing the surrounding design.
package fault

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/gate"
	"repro/internal/signal"
)

// Enumerate returns the full single-stuck-at fault universe of a netlist:
// stuck-at-0 and stuck-at-1 on every net. It is the uncollapsed oracle
// Collapse is checked against.
//
// Used only by tests: TestCollapsedCoverageEqualsFullCoverage,
// TestC17ExhaustiveCoverage, TestCollapseReducesFaultCount,
// TestEnumerateCountsTwoPerNet.
func Enumerate(nl *gate.Netlist) []gate.Fault {
	faults := make([]gate.Fault, 0, 2*nl.NumNets())
	for id := 0; id < nl.NumNets(); id++ {
		faults = append(faults,
			gate.Fault{Net: gate.NetID(id), Stuck: signal.B0},
			gate.Fault{Net: gate.NetID(id), Stuck: signal.B1},
		)
	}
	return faults
}

// faultIndex is a fault's dense index in the collapse structures,
// 2·net + stuck: Enumerate's order, so index i is the i-th fault of the
// universe.
func faultIndex(net gate.NetID, stuck signal.Bit) int32 { return 2*int32(net) + int32(stuck) }

// faultAt is the fault at dense index i.
func faultAt(i int) gate.Fault { return gate.Fault{Net: gate.NetID(i / 2), Stuck: signal.Bit(i % 2)} }

// unionFind is a disjoint-set forest over dense fault indices: u[i] is
// i's parent, and a root is its own parent.
type unionFind []int32

func newUnionFind(n int) unionFind {
	u := make(unionFind, n)
	for i := range u {
		u[i] = int32(i)
	}
	return u
}

// find returns k's root and points every index on the way at it.
func (u unionFind) find(k int32) int32 {
	root := k
	for u[root] != root {
		root = u[root]
	}
	for u[k] != root {
		next := u[k]
		u[k] = root
		k = next
	}
	return root
}

func (u unionFind) union(a, b int32) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u[ra] = rb
	}
}

// collapseUnion builds the equivalence structure over the fault
// universe. The classical gate rules are applied:
//
//	AND : output sa0 ≡ every input sa0      NAND: output sa1 ≡ every input sa0
//	OR  : output sa1 ≡ every input sa1      NOR : output sa0 ≡ every input sa1
//	BUF : output saV ≡ input saV            NOT : output saV ≡ input sa¬V
//
// Equivalence across a gate input is only valid when the input net is
// fanout-free (drives exactly that one gate input) AND is not itself a
// primary output: a fault on an observed net is distinguishable at that
// net directly even when its downstream effect coincides. (The second
// condition was caught by the functional-equivalence property test in
// collapse_test.go.)
//
// Which member becomes a class's root is arbitrary; every caller picks
// the first member in enumeration order as the representative.
func collapseUnion(nl *gate.Netlist) unionFind {
	if err := nl.Build(); err != nil {
		panic(fmt.Sprintf("fault: %v", err))
	}
	uf := newUnionFind(2 * nl.NumNets())
	for _, g := range nl.Gates() {
		for _, in := range g.In {
			if nl.Fanout(in) != 1 || nl.IsOutput(in) {
				continue
			}
			switch g.Kind {
			case gate.And:
				uf.union(faultIndex(in, signal.B0), faultIndex(g.Out, signal.B0))
			case gate.Nand:
				uf.union(faultIndex(in, signal.B0), faultIndex(g.Out, signal.B1))
			case gate.Or:
				uf.union(faultIndex(in, signal.B1), faultIndex(g.Out, signal.B1))
			case gate.Nor:
				uf.union(faultIndex(in, signal.B1), faultIndex(g.Out, signal.B0))
			case gate.Buf:
				uf.union(faultIndex(in, signal.B0), faultIndex(g.Out, signal.B0))
				uf.union(faultIndex(in, signal.B1), faultIndex(g.Out, signal.B1))
			case gate.Not:
				uf.union(faultIndex(in, signal.B0), faultIndex(g.Out, signal.B1))
				uf.union(faultIndex(in, signal.B1), faultIndex(g.Out, signal.B0))
			}
		}
	}
	return uf
}

// Collapse reduces the fault universe by structural equivalence (see
// collapseUnion for the rules and their validity conditions): faults that
// provably produce identical faulty functions are merged, and one
// representative per class is kept, in deterministic (net, stuck) order.
func Collapse(nl *gate.Netlist) []gate.Fault {
	uf := collapseUnion(nl)
	seen := make([]bool, len(uf))
	out := make([]gate.Fault, 0, len(uf))
	for i := range uf {
		root := uf.find(int32(i))
		if seen[root] {
			continue
		}
		seen[root] = true
		out = append(out, faultAt(i))
	}
	return out
}

// EquivalenceClasses returns, for each collapsed representative, every
// fault merged into it (including itself). Coverage numbers over the full
// universe are derived from class sizes. It is the class oracle Collapse
// and the symbolic lists are checked against.
//
// Used only by tests: TestCollapseMatchesMapOracle,
// TestCollapsedCoverageEqualsFullCoverage,
// TestEquivalenceClassesAreFunctionallyEquivalent,
// TestCollapseRespectsFanout, TestEquivalenceClassesCoverUniverse.
func EquivalenceClasses(nl *gate.Netlist) map[gate.Fault][]gate.Fault {
	uf := collapseUnion(nl)
	// One enumeration pass: the first fault reaching a root (in
	// deterministic (net, stuck) order) is the class representative —
	// the same choice Collapse makes.
	byRoot := make([]int32, len(uf)) // class index+1 of each root; 0 unset
	var classes [][]gate.Fault
	for i := range uf {
		root := uf.find(int32(i))
		if byRoot[root] == 0 {
			classes = append(classes, nil)
			byRoot[root] = int32(len(classes))
		}
		c := byRoot[root] - 1
		classes[c] = append(classes[c], faultAt(i))
	}
	out := make(map[gate.Fault][]gate.Fault, len(classes))
	for _, class := range classes {
		out[class[0]] = class
	}
	return out
}

// Naming maps internal faults to the symbolic names a provider publishes.
type Naming int

// Naming policies.
const (
	// NetNames spells faults as <netname>sa<v>, the paper's Figure 4
	// style (I3sa0). Net names are visible; use for components whose net
	// naming is not sensitive.
	NetNames Naming = iota
	// Anonymous spells faults as f<k>sa<v> with k an opaque index,
	// disclosing nothing about the component's structure.
	Anonymous
)

// SymbolicList is a provider's published fault list: symbolic names in a
// stable order, with the internal fault behind each name kept private.
type SymbolicList struct {
	names []string
	// faults[i] is the internal fault names[i] stands for.
	faults []gate.Fault
}

// buildSymbolicList builds the symbolic fault list for a netlist under
// the naming policy, over the collapsed fault set. With internalOnly it
// keeps only the component's INTERNAL faults: equivalence classes
// consisting solely of primary-input or primary-output net faults are
// omitted, because — as the paper specifies — "the user directly
// handles faults affecting input or output signals" (a port fault
// belongs to the shared net between user and component, not to the
// provider's IP). A class mixing port and internal faults keeps an
// internal representative.
func buildSymbolicList(nl *gate.Netlist, policy Naming, internalOnly bool) *SymbolicList {
	uf := collapseUnion(nl)
	// One enumeration pass replaces the Collapse + EquivalenceClasses
	// pair this function used to run (each of which re-derived the union
	// structure): classes are discovered in deterministic (net, stuck)
	// order, the first member of each class is its representative, and
	// the internal-only filter tracks the first internal member in the
	// same order a scan of the class slice would have found it.
	isInternal := func(i int32) bool {
		f := faultAt(int(i))
		return !nl.IsInput(f.Net) && !nl.IsOutput(f.Net)
	}
	reps := make([]int32, 0, len(uf)) // each class's representative
	byRoot := make([]int32, len(uf))  // rep index+1 of each root; 0 unset
	for i := range uf {
		root := uf.find(int32(i))
		if e := byRoot[root]; e != 0 {
			if internalOnly && !isInternal(reps[e-1]) && isInternal(int32(i)) {
				reps[e-1] = int32(i)
			}
			continue
		}
		reps = append(reps, int32(i))
		byRoot[root] = int32(len(reps))
	}
	kept := reps[:0]
	size := 0
	anonLen := len("fsa0") + len(strconv.Itoa(len(reps)))
	for _, i := range reps {
		if internalOnly && !isInternal(i) {
			continue // class holds only port faults: user's responsibility
		}
		kept = append(kept, i)
		if policy == Anonymous {
			size += anonLen
		} else {
			size += len(nl.NetName(faultAt(int(i)).Net)) + len("sa0")
		}
	}
	// Every name is a substring of one buffer, sized up front, so the
	// list's names cost one allocation rather than one each.
	var text strings.Builder
	text.Grow(size)
	sl := &SymbolicList{
		names:  make([]string, len(kept)),
		faults: make([]gate.Fault, len(kept)),
	}
	for k, i := range kept {
		f := faultAt(int(i))
		start := text.Len()
		switch policy {
		case Anonymous:
			text.WriteByte('f')
			text.WriteString(strconv.Itoa(k))
		default:
			text.WriteString(nl.NetName(f.Net))
		}
		text.WriteString("sa")
		text.WriteByte('0' + byte(f.Stuck))
		sl.names[k] = text.String()[start:]
		sl.faults[k] = f
	}
	return sl
}

// Names returns the symbolic names in publication order. This slice is
// what crosses the IP boundary to the user.
func (sl *SymbolicList) Names() []string { return append([]string(nil), sl.names...) }
