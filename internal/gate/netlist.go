// Package gate implements structural gate-level netlists: the abstraction
// level at which IP providers hold the accurate—and IP-protected—view of
// their components. Netlists support levelized four-valued evaluation,
// evaluation under injected stuck-at faults, and a compiled lane kernel
// that evaluates 64 patterns or faulty machines per pass; they are the
// substrate under the PPP-style power estimator (internal/ppp), the
// fault machinery (internal/fault), and the gate-level design modules
// (internal/module).
package gate

import (
	"fmt"

	"repro/internal/signal"
)

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

// eval computes the gate function over four-valued inputs.
func (k Kind) eval(in []signal.Bit) signal.Bit {
	switch k {
	case Buf:
		return in[0].Or(in[0]) // normalizes Z to X like any gate input
	case Not:
		return in[0].Not()
	case And, Nand:
		v := in[0]
		for _, b := range in[1:] {
			v = v.And(b)
		}
		if k == Nand {
			v = v.Not()
		}
		return v
	case Or, Nor:
		v := in[0]
		for _, b := range in[1:] {
			v = v.Or(b)
		}
		if k == Nor {
			v = v.Not()
		}
		return v
	case Xor, Xnor:
		v := in[0]
		for _, b := range in[1:] {
			v = v.Xor(b)
		}
		if k == Xnor {
			v = v.Not()
		}
		return v
	}
	return signal.BX
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
	driver int // index of driving gate, or -1 for a primary input
	fanout int // number of gate inputs this net feeds
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
	g := Gate{Kind: k, Name: n.nets[out].name, In: append([]NetID(nil), in...), Out: out}
	n.nets[out].driver = len(n.gates)
	n.gates = append(n.gates, g)
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
	return n.nets[id].fanout
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
	// Kahn's algorithm over gates.
	indeg := make([]int, len(n.gates))
	consumers := make([][]int, len(n.nets)) // net -> gate indices reading it
	for gi, g := range n.gates {
		for _, in := range g.In {
			ni := n.nets[in]
			if ni.driver == -1 && !ni.isPI {
				return fmt.Errorf("gate: %s: net %q feeds gate %q but has no driver",
					n.Name, ni.name, g.Name)
			}
			if ni.driver != -1 {
				indeg[gi]++
			}
			consumers[in] = append(consumers[in], gi)
		}
	}
	order := make([]int, 0, len(n.gates))
	queue := make([]int, 0, len(n.gates))
	for gi, d := range indeg {
		if d == 0 {
			queue = append(queue, gi)
		}
	}
	for len(queue) > 0 {
		gi := queue[0]
		queue = queue[1:]
		order = append(order, gi)
		for _, ci := range consumers[n.gates[gi].Out] {
			indeg[ci]--
			if indeg[ci] == 0 {
				queue = append(queue, ci)
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
