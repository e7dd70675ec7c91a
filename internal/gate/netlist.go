// Package gate implements structural gate-level netlists: the abstraction
// level at which IP providers hold the accurate—and IP-protected—view of
// their components. Netlists evaluate on one compiled lane kernel that
// carries 64 four-valued patterns or faulty machines per levelized pass,
// under injected stuck-at faults; they are the substrate under the
// PPP-style power estimator (internal/ppp), the fault machinery
// (internal/fault), and the gate-level design modules (internal/module).
package gate

import "fmt"

// Kind enumerates the primitive gate types.
type Kind int

// The supported primitive gates. Buf and Not are unary; the others accept
// two or more inputs.
const (
	Buf Kind = iota
	Not
	And
	Nand
	Or
	Nor
	Xor
	Xnor
)

var kindNames = [...]string{"BUF", "NOT", "AND", "NAND", "OR", "NOR", "XOR", "XNOR"}

// String returns the conventional gate-type mnemonic.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// minInputs returns the arity constraint for the kind.
func (k Kind) minInputs() int {
	if k == Buf || k == Not {
		return 1
	}
	return 2
}

// NetID identifies a net (a named wire) within one netlist.
type NetID int

// InvalidNet is returned by lookups that fail.
const InvalidNet NetID = -1

// Gate is one primitive cell instance.
type Gate struct {
	Kind Kind
	Name string
	In   []NetID
	Out  NetID
}

type netInfo struct {
	name   string
	driver int32 // index of driving gate, or -1 for a primary input
	fanout int32 // number of gate inputs this net feeds
	isPI   bool
	isPO   bool
}

// Netlist is a combinational gate-level circuit: primary inputs, primitive
// gates, and primary outputs, connected by single-driver nets.
type Netlist struct {
	Name string

	nets    []netInfo
	gates   []Gate
	inputs  []NetID
	outputs []NetID
	byName  map[string]NetID
	// nameCap is the number of names byName was sized for (see Reserve).
	nameCap int

	// pins is the slab every gate's In is carved from (see carve): a
	// netlist keeps its gate inputs in a few large arrays, not one slice
	// per gate. It only grows; a full slab is replaced, not copied, and
	// the gates carved from it keep it alive.
	pins []NetID

	levels  []int // gate indices in topological order (valid when built)
	ordered bool

	// ops is the lane kernel's op table, compiled from levels over
	// slots planes: the nets, then temporaries of wide gates (see op).
	ops   []op
	slots int
}

// NewNetlist returns an empty netlist.
func NewNetlist(name string) *Netlist {
	return &Netlist{Name: name, byName: make(map[string]NetID)}
}

// minPinSlab is the smallest slab carve allocates when the current one
// is full and no reservation said how many pins are coming.
const minPinSlab = 64

// Reserve makes room for nets more nets and gates more gates, with two
// inputs each, so a builder that knows the size of what it builds grows
// each store once: the net and gate lists, the name index and the pin
// slab. Reserving is only an optimization; adding past the reservation
// grows the stores as usual.
func (n *Netlist) Reserve(nets, gates int) {
	n.nets = grow(n.nets, nets)
	n.gates = grow(n.gates, gates)
	if pins := 2 * gates; cap(n.pins)-len(n.pins) < pins {
		n.pins = make([]NetID, 0, pins)
	}
	if want := len(n.byName) + nets; want > n.nameCap {
		byName := make(map[string]NetID, want)
		for name, id := range n.byName {
			byName[name] = id
		}
		n.byName, n.nameCap = byName, want
	}
}

// grow returns s with room for n more elements. Unlike slices.Grow it
// allocates once under the race detector too, so allocation budgets
// read the same in both builds.
func grow[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make([]T, 0, len(s)+n), s...)
}

// carve takes k pins from the slab for one gate's inputs. The window's
// capacity ends at its length, so appending to a gate's In copies it
// rather than overwriting the next gate's inputs.
func (n *Netlist) carve(k int) []NetID {
	if cap(n.pins)-len(n.pins) < k {
		n.pins = make([]NetID, 0, max(k, 2*cap(n.pins), minPinSlab))
	}
	start := len(n.pins)
	n.pins = n.pins[:start+k]
	return n.pins[start : start+k : start+k]
}

// AddNet creates an undriven net. Internal nets become driven when a gate
// names them as its output.
func (n *Netlist) AddNet(name string) NetID {
	if _, dup := n.byName[name]; dup {
		panic(fmt.Sprintf("gate: duplicate net name %q in %s", name, n.Name))
	}
	id := NetID(len(n.nets))
	n.nets = append(n.nets, netInfo{name: name, driver: -1})
	n.byName[name] = id
	return id
}

// AddInput creates a primary-input net.
func (n *Netlist) AddInput(name string) NetID {
	id := n.AddNet(name)
	n.nets[id].isPI = true
	n.inputs = append(n.inputs, id)
	return id
}

// MarkOutput flags an existing net as a primary output.
func (n *Netlist) MarkOutput(id NetID) {
	n.checkNet(id)
	if !n.nets[id].isPO {
		n.nets[id].isPO = true
		n.outputs = append(n.outputs, id)
	}
}

// AddGate instantiates a primitive gate driving a fresh net named outName
// and returns that net. Gate names default to the output net's name.
func (n *Netlist) AddGate(k Kind, outName string, in ...NetID) NetID {
	out := n.AddNet(outName)
	n.AddGateTo(k, out, in...)
	return out
}

// AddGateTo instantiates a primitive gate driving an existing undriven
// net. It panics on unknown kinds, arity violations, unknown nets, or
// double drivers — structural errors that would otherwise surface as
// silent X values.
func (n *Netlist) AddGateTo(k Kind, out NetID, in ...NetID) {
	pins := n.carve(len(in))
	copy(pins, in)
	n.addGate(k, out, pins)
}

// addGate is AddGateTo over inputs already carved from the slab.
func (n *Netlist) addGate(k Kind, out NetID, in []NetID) {
	n.checkNet(out)
	if k < Buf || k > Xnor {
		panic(fmt.Sprintf("gate: gate %q has unknown kind %v", n.nets[out].name, k))
	}
	if len(in) < k.minInputs() {
		panic(fmt.Sprintf("gate: %s gate %q needs at least %d inputs, got %d",
			k, n.nets[out].name, k.minInputs(), len(in)))
	}
	if (k == Buf || k == Not) && len(in) != 1 {
		panic(fmt.Sprintf("gate: unary gate %q got %d inputs", n.nets[out].name, len(in)))
	}
	if n.nets[out].driver != -1 || n.nets[out].isPI {
		panic(fmt.Sprintf("gate: net %q already driven", n.nets[out].name))
	}
	for _, i := range in {
		n.checkNet(i)
		n.nets[i].fanout++
	}
	n.nets[out].driver = int32(len(n.gates))
	n.gates = append(n.gates, Gate{Kind: k, Name: n.nets[out].name, In: in, Out: out})
	n.ordered = false
}

func (n *Netlist) checkNet(id NetID) {
	if id < 0 || int(id) >= len(n.nets) {
		panic(fmt.Sprintf("gate: invalid net id %d in %s", id, n.Name))
	}
}

// Net returns the id of the net with the given name.
func (n *Netlist) Net(name string) NetID {
	if id, ok := n.byName[name]; ok {
		return id
	}
	return InvalidNet
}

// NetName returns the name of a net.
func (n *Netlist) NetName(id NetID) string {
	n.checkNet(id)
	return n.nets[id].name
}

// Inputs returns the primary-input nets in declaration order.
func (n *Netlist) Inputs() []NetID { return n.inputs }

// Outputs returns the primary-output nets in declaration order.
func (n *Netlist) Outputs() []NetID { return n.outputs }

// NumGates returns the number of primitive gates.
func (n *Netlist) NumGates() int { return len(n.gates) }

// NumNets returns the number of nets.
func (n *Netlist) NumNets() int { return len(n.nets) }

// Gates returns the gate list (callers must not mutate it).
func (n *Netlist) Gates() []Gate { return n.gates }

// Fanout returns the number of gate inputs a net feeds.
func (n *Netlist) Fanout(id NetID) int {
	n.checkNet(id)
	return int(n.nets[id].fanout)
}

// IsInput reports whether the net is a primary input.
func (n *Netlist) IsInput(id NetID) bool { n.checkNet(id); return n.nets[id].isPI }

// IsOutput reports whether the net is a primary output.
func (n *Netlist) IsOutput(id NetID) bool { n.checkNet(id); return n.nets[id].isPO }

// build topologically orders the gates; it returns an error for
// combinational loops or undriven internal nets feeding gates.
func (n *Netlist) build() error {
	if n.ordered {
		return nil
	}
	// Kahn's algorithm over gates. consumers lists, net by net, the
	// gates reading each net in gate order: net i's readers are
	// consumers[first[i]:first[i+1]]. A gate reading a net twice is
	// listed twice, and its in-degree counts both reads.
	indeg := make([]int32, len(n.gates))
	first := make([]int32, len(n.nets)+1)
	for gi, g := range n.gates {
		for _, in := range g.In {
			ni := &n.nets[in]
			if ni.driver == -1 && !ni.isPI {
				return fmt.Errorf("gate: %s: net %q feeds gate %q but has no driver",
					n.Name, ni.name, g.Name)
			}
			if ni.driver != -1 {
				indeg[gi]++
			}
			first[in+1]++
		}
	}
	for i := 1; i < len(first); i++ {
		first[i] += first[i-1]
	}
	consumers := make([]int32, first[len(n.nets)])
	fill := first[:len(n.nets)] // fill[i]: net i's next free slot
	for gi, g := range n.gates {
		for _, in := range g.In {
			consumers[fill[in]] = int32(gi)
			fill[in]++
		}
	}
	// Filling advanced fill[i] to net i's end, which is first[i+1]; shift
	// the starts back in.
	copy(first[1:], first[:len(n.nets)])
	first[0] = 0
	// order doubles as the FIFO queue: gates are appended when their
	// in-degree reaches zero and popped at head.
	order := make([]int, 0, len(n.gates))
	for gi, d := range indeg {
		if d == 0 {
			order = append(order, gi)
		}
	}
	for head := 0; head < len(order); head++ {
		out := n.gates[order[head]].Out
		for _, ci := range consumers[first[out]:first[out+1]] {
			indeg[ci]--
			if indeg[ci] == 0 {
				order = append(order, int(ci))
			}
		}
	}
	if len(order) != len(n.gates) {
		return fmt.Errorf("gate: %s: combinational loop detected", n.Name)
	}
	n.levels = order
	n.compile()
	n.ordered = true
	return nil
}

// Build finalizes the netlist for evaluation. It is idempotent and is
// called automatically by the evaluation entry points; exposing it lets
// construction code fail fast.
func (n *Netlist) Build() error { return n.build() }

// Levelized builds the netlist and returns its gate indices (into
// Gates) in topological order: every gate follows the gates driving its
// inputs. The slice is read-only.
func (n *Netlist) Levelized() ([]int, error) {
	if err := n.build(); err != nil {
		return nil, err
	}
	return n.levels, nil
}
