package gate

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/signal"
)

// AddHalfAdder appends a half adder computing sum = a XOR b and
// carry = a AND b, with nets named with the given prefix.
func (n *Netlist) AddHalfAdder(prefix string, a, b NetID) (sum, carry NetID) {
	var names nameBuf
	names.Grow(2*len(prefix) + len(".s.c"))
	return n.addHalfAdder(&names, prefix, a, b)
}

// addHalfAdder is AddHalfAdder with the net names carved from names.
func (n *Netlist) addHalfAdder(names *nameBuf, prefix string, a, b NetID) (sum, carry NetID) {
	sum = n.AddGate(Xor, names.concat(prefix, ".s"), a, b)
	carry = n.AddGate(And, names.concat(prefix, ".c"), a, b)
	return sum, carry
}

// AddFullAdder appends a full adder over a, b and cin, with nets named
// with the given prefix.
func (n *Netlist) AddFullAdder(prefix string, a, b, cin NetID) (sum, cout NetID) {
	var names nameBuf
	names.Grow(5*len(prefix) + len(".ab.s.c1.c2.co"))
	return n.addFullAdder(&names, prefix, a, b, cin)
}

// addFullAdder is AddFullAdder with the net names carved from names.
func (n *Netlist) addFullAdder(names *nameBuf, prefix string, a, b, cin NetID) (sum, cout NetID) {
	ab := n.AddGate(Xor, names.concat(prefix, ".ab"), a, b)
	sum = n.AddGate(Xor, names.concat(prefix, ".s"), ab, cin)
	c1 := n.AddGate(And, names.concat(prefix, ".c1"), a, b)
	c2 := n.AddGate(And, names.concat(prefix, ".c2"), ab, cin)
	cout = n.AddGate(Or, names.concat(prefix, ".co"), c1, c2)
	return sum, cout
}

// RippleAdder builds an n-bit ripple-carry adder: inputs a[0..n), b[0..n),
// outputs s[0..n) and carry-out "cout".
func RippleAdder(width int) *Netlist {
	nl := NewNetlist("rca" + strconv.Itoa(width))
	a := make([]NetID, width)
	b := make([]NetID, width)
	for i := 0; i < width; i++ {
		a[i] = nl.AddInput("a" + strconv.Itoa(i))
	}
	for i := 0; i < width; i++ {
		b[i] = nl.AddInput("b" + strconv.Itoa(i))
	}
	var carry NetID = InvalidNet
	for i := 0; i < width; i++ {
		var s NetID
		if i == 0 {
			s, carry = nl.AddHalfAdder("fa0", a[i], b[i])
		} else {
			s, carry = nl.AddFullAdder("fa"+strconv.Itoa(i), a[i], b[i], carry)
		}
		nl.MarkOutput(s)
	}
	nl.MarkOutput(carry)
	return nl
}

// ArrayMultiplier builds a width×width unsigned array multiplier with a
// 2·width-bit product: the gate-level view of the paper's MULT component,
// the netlist an IP provider would never disclose. Inputs are a[0..w) then
// b[0..w); outputs are p[0..2w) LSB first.
func ArrayMultiplier(width int) *Netlist {
	if width < 2 {
		panic("gate: ArrayMultiplier needs width >= 2")
	}
	nl := NewNetlist("mult" + strconv.Itoa(width))
	// The width² partial products, then row 1's two half adders around
	// width−2 full adders, then a half adder and width−1 full adders in
	// each later row: 6·width² − 8·width gates, one net each.
	gates := 6*width*width - 8*width
	nl.Reserve(2*width+gates, gates)
	// Names are at most d digits per index: inputs carry one index; the
	// partial products, the row prefixes (one per row cell and carry
	// step) and the adder outputs carry two.
	d := len(strconv.Itoa(2 * width))
	var names nameBuf
	names.Grow(2*width*(1+d) + (3*width*width-width)*(3+2*d) + (gates-width*width)*(6+2*d))
	a := make([]NetID, width)
	b := make([]NetID, width)
	for i := 0; i < width; i++ {
		a[i] = nl.AddInput(names.indexed("a", i))
	}
	for i := 0; i < width; i++ {
		b[i] = nl.AddInput(names.indexed("b", i))
	}
	// Partial products pp[i][j] = a[j] AND b[i], weight i+j.
	pp := make([][]NetID, width)
	ppNets := make([]NetID, width*width)
	for i := 0; i < width; i++ {
		pp[i] = ppNets[i*width : (i+1)*width]
		for j := 0; j < width; j++ {
			pp[i][j] = nl.AddGate(And, names.pair("pp", i, "_", j), a[j], b[i])
		}
	}
	// Carry-save reduction: acc holds the running sum bits of the first
	// row; each subsequent row is added with a ripple of full adders.
	acc := make([]NetID, 2*width)
	for k := range acc {
		acc[k] = InvalidNet
	}
	for j := 0; j < width; j++ {
		acc[j] = pp[0][j]
	}
	for i := 1; i < width; i++ {
		var carry NetID = InvalidNet
		for j := 0; j < width; j++ {
			k := i + j
			prefix := names.pair("r", i, "_", j)
			switch {
			case acc[k] == InvalidNet && carry == InvalidNet:
				acc[k] = pp[i][j]
			case acc[k] == InvalidNet:
				acc[k], carry = nl.addHalfAdder(&names, prefix, pp[i][j], carry)
			case carry == InvalidNet:
				acc[k], carry = nl.addHalfAdder(&names, prefix, acc[k], pp[i][j])
			default:
				acc[k], carry = nl.addFullAdder(&names, prefix, acc[k], pp[i][j], carry)
			}
		}
		// Propagate the final carry of the row into the accumulator.
		k := i + width
		for carry != InvalidNet && k < 2*width {
			prefix := names.pair("r", i, "_c", k)
			if acc[k] == InvalidNet {
				acc[k] = carry
				carry = InvalidNet
			} else {
				acc[k], carry = nl.addHalfAdder(&names, prefix, acc[k], carry)
				k++
			}
		}
	}
	for k := 0; k < 2*width; k++ {
		if acc[k] == InvalidNet {
			panic("gate: ArrayMultiplier produced an undriven product bit")
		}
		nl.MarkOutput(acc[k])
	}
	return nl
}

// HalfAdderIP builds the IP1 block of the paper's Figure 4: a half adder
// (sum/carry over two inputs) implemented with internal nets named
// I1..I6, whose stuck-at faults form IP1's symbolic fault list. Inputs
// are IIP1 and IIP2; outputs OIP1 (sum) then OIP2 (carry).
func HalfAdderIP() *Netlist {
	nl := NewNetlist("IP1")
	a := nl.AddInput("IIP1")
	b := nl.AddInput("IIP2")
	// NAND-based half adder with six internal lines:
	//   I1 = NAND(a,b); I2 = NAND(a,I1); I3 = NAND(b,I1);
	//   I4 = NAND(I2,I3) = a XOR b (sum); I5 = NOT I1 = a AND b (carry);
	//   I6 = BUF I4 (the sum line routed to the output).
	i1 := nl.AddGate(Nand, "I1", a, b)
	i2 := nl.AddGate(Nand, "I2", a, i1)
	i3 := nl.AddGate(Nand, "I3", b, i1)
	i4 := nl.AddGate(Nand, "I4", i2, i3)
	i5 := nl.AddGate(Not, "I5", i1)
	i6 := nl.AddGate(Buf, "I6", i4)
	oip1 := nl.AddGate(Buf, "OIP1", i6)
	oip2 := nl.AddGate(Buf, "OIP2", i5)
	nl.MarkOutput(oip1)
	nl.MarkOutput(oip2)
	return nl
}

// C17 builds the ISCAS-85 c17 benchmark: 5 inputs, 6 NAND gates, 2
// outputs — the canonical tiny test-generation benchmark, with net names
// following the ISCAS numbering.
// Used only by tests: TestC17Structure, TestC17ExhaustiveCoverage.
func C17() *Netlist {
	nl := NewNetlist("c17")
	n1 := nl.AddInput("1")
	n2 := nl.AddInput("2")
	n3 := nl.AddInput("3")
	n6 := nl.AddInput("6")
	n7 := nl.AddInput("7")
	n10 := nl.AddGate(Nand, "10", n1, n3)
	n11 := nl.AddGate(Nand, "11", n3, n6)
	n16 := nl.AddGate(Nand, "16", n2, n11)
	n19 := nl.AddGate(Nand, "19", n11, n7)
	n22 := nl.AddGate(Nand, "22", n10, n16)
	n23 := nl.AddGate(Nand, "23", n16, n19)
	nl.MarkOutput(n22)
	nl.MarkOutput(n23)
	return nl
}

// RandomCombinational builds a pseudo-random combinational DAG with the
// given numbers of primary inputs, gates and outputs — the workload for
// fault-simulation equivalence property tests. The same seed always
// yields the same circuit.
func RandomCombinational(nIn, nGates, nOut int, seed int64) *Netlist {
	if nIn < 2 || nGates < 1 || nOut < 1 {
		panic("gate: RandomCombinational needs nIn>=2, nGates>=1, nOut>=1")
	}
	r := rand.New(rand.NewSource(seed))
	nl := NewNetlist("rand_" + strconv.Itoa(nIn) + "_" + strconv.Itoa(nGates) + "_" + strconv.FormatInt(seed, 10))
	nl.Reserve(nIn+nGates, nGates)
	var names nameBuf
	names.Grow(nIn*(2+len(strconv.Itoa(nIn))) + nGates*(1+len(strconv.Itoa(nGates))))
	avail := make([]NetID, 0, nIn+nGates)
	for i := 0; i < nIn; i++ {
		avail = append(avail, nl.AddInput(names.indexed("in", i)))
	}
	kinds := [...]Kind{And, Nand, Or, Nor, Xor, Xnor, Not, Buf}
	var in [2]NetID
	for g := 0; g < nGates; g++ {
		k := kinds[r.Intn(len(kinds))]
		arity := 2
		if k == Not || k == Buf {
			arity = 1
		}
		for i := 0; i < arity; i++ {
			in[i] = avail[r.Intn(len(avail))]
		}
		avail = append(avail, nl.AddGate(k, names.indexed("g", g), in[:arity]...))
	}
	// Choose outputs among the last gates so most logic is observable.
	if nOut > nGates {
		nOut = nGates
	}
	for i := 0; i < nOut; i++ {
		nl.MarkOutput(avail[len(avail)-1-i])
	}
	return nl
}

// Embed flattens a sub-netlist into n: sub's primary inputs are wired to
// the given driver nets of n, every other sub net is recreated in n with
// the prefix prepended to its name, and sub's gates are copied. It
// returns sub's primary-output nets as nets of n (in sub's output order).
// Embed is the full-disclosure operation an IP provider performs on its
// own server — or the reference construction used to validate virtual
// simulation against a flattened design.
func (n *Netlist) Embed(sub *Netlist, drivers []NetID, prefix string) []NetID {
	if len(drivers) != len(sub.inputs) {
		panic(fmt.Sprintf("gate: Embed of %s needs %d drivers, got %d",
			sub.Name, len(sub.inputs), len(drivers)))
	}
	if err := sub.build(); err != nil {
		panic(fmt.Sprintf("gate: Embed: %v", err))
	}
	n.Reserve(len(sub.nets)-len(sub.inputs), len(sub.gates))
	mapping := make([]NetID, len(sub.nets)) // sub net → net of n
	for i, id := range sub.inputs {
		n.checkNet(drivers[i])
		mapping[id] = drivers[i]
	}
	var names nameBuf
	size := 0
	for _, ni := range sub.nets {
		size += len(prefix) + len(ni.name)
	}
	names.Grow(size)
	for id := range sub.nets {
		if sub.nets[id].isPI {
			continue
		}
		mapping[id] = n.AddNet(names.concat(prefix, sub.nets[id].name))
	}
	for _, gi := range sub.levels {
		g := &sub.gates[gi]
		in := n.carve(len(g.In))
		for i, id := range g.In {
			in[i] = mapping[id]
		}
		n.addGate(g.Kind, mapping[g.Out], in)
	}
	outs := make([]NetID, len(sub.outputs))
	for i, id := range sub.outputs {
		outs[i] = mapping[id]
	}
	return outs
}

// nameBuf carves generated names from one buffer: each name is a
// substring of the builder's contents, which never change once written,
// so a builder that grows its buffer up front names n nets with one
// allocation rather than n.
type nameBuf struct{ strings.Builder }

// concat returns prefix + name.
func (b *nameBuf) concat(prefix, name string) string {
	start := b.Len()
	b.WriteString(prefix)
	b.WriteString(name)
	return b.String()[start:]
}

// indexed returns prefix followed by i in decimal.
func (b *nameBuf) indexed(prefix string, i int) string {
	start := b.Len()
	b.WriteString(prefix)
	var digits [20]byte
	b.Write(strconv.AppendInt(digits[:0], int64(i), 10))
	return b.String()[start:]
}

// pair returns prefix, i, sep and j, with i and j in decimal.
func (b *nameBuf) pair(prefix string, i int, sep string, j int) string {
	start := b.Len()
	b.WriteString(prefix)
	var digits [20]byte
	b.Write(strconv.AppendInt(digits[:0], int64(i), 10))
	b.WriteString(sep)
	b.Write(strconv.AppendInt(digits[:0], int64(j), 10))
	return b.String()[start:]
}

// InputWord packs a uint64 into an input pattern for a netlist with up to
// 64 primary inputs (bit i of v drives input i).
func (n *Netlist) InputWord(v uint64) []signal.Bit {
	in := make([]signal.Bit, len(n.inputs))
	for i := range in {
		if v&(1<<uint(i)) != 0 {
			in[i] = signal.B1
		}
	}
	return in
}
