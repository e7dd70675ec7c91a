package fault

import (
	"fmt"
	"strconv"

	"repro/internal/gate"
	"repro/internal/module"
	"repro/internal/signal"
)

// IPDesign bundles a module-level design containing IP components with
// everything needed to fault-simulate it virtually AND to validate the
// result against a flattened full-disclosure reference.
type IPDesign struct {
	// Circuit is the module-level design (user's view).
	Circuit *module.Circuit
	// Inputs are the primary-input connectors, pattern bit i → Inputs[i].
	Inputs []*module.Connector
	// Outputs monitor the design's primary outputs.
	Outputs []*module.PrimaryOutput
	// Hosts are the IP components with their testability services.
	Hosts []*Host
	// Flat is the flattened netlist of the whole design with component
	// internals prefixed by "<instance>." — the reference an omniscient
	// owner could fault-simulate directly.
	Flat *gate.Netlist
}

// FlatFaultFor maps a qualified virtual fault name ("IP1.I3sa0") to the
// corresponding fault of the flattened netlist.
func (d *IPDesign) FlatFaultFor(qualified string) (gate.Fault, error) {
	for _, h := range d.Hosts {
		prefix := h.Module.ModuleName() + "."
		if len(qualified) <= len(prefix) || qualified[:len(prefix)] != prefix {
			continue
		}
		sym := qualified[len(prefix):]
		// Symbol format: <netname>sa<0|1>.
		if len(sym) < 4 {
			return gate.Fault{}, fmt.Errorf("fault: malformed symbol %q", qualified)
		}
		netName := prefix + sym[:len(sym)-3]
		id := d.Flat.Net(netName)
		if id == gate.InvalidNet {
			return gate.Fault{}, fmt.Errorf("fault: flat netlist has no net %q", netName)
		}
		f := gate.Fault{Net: id, Stuck: signal.B0}
		switch sym[len(sym)-3:] {
		case "sa0":
		case "sa1":
			f.Stuck = signal.B1
		default:
			return gate.Fault{}, fmt.Errorf("fault: malformed symbol %q", qualified)
		}
		return f, nil
	}
	return gate.Fault{}, fmt.Errorf("fault: %q matches no host", qualified)
}

// Figure4Design builds the paper's Figure 4 example as a module-level
// design: primary inputs A-D, an AND gate producing E, the IP1 half-adder
// block (a NetlistModule whose gate-level content plays the role of the
// provider's private implementation), and the output logic O1 = OIP1·D,
// O2 = OIP2 + (C·D). Inputs order: A, B, C, D. Outputs order: O1, O2.
func Figure4Design() (*IPDesign, error) {
	a := module.NewBitConnector("A")
	b := module.NewBitConnector("B")
	c := module.NewBitConnector("C")
	d := module.NewBitConnector("D")
	// C and D each feed two sinks: explicit fan-out modules.
	c1 := module.NewBitConnector("C1")
	c2 := module.NewBitConnector("C2")
	d1 := module.NewBitConnector("D1")
	d2 := module.NewBitConnector("D2")
	e := module.NewBitConnector("E")
	oip1 := module.NewBitConnector("OIP1")
	oip2 := module.NewBitConnector("OIP2")
	f := module.NewBitConnector("F")
	o1 := module.NewBitConnector("O1")
	o2 := module.NewBitConnector("O2")

	foC := module.NewFanout("foC", 1, c, []*module.Connector{c1, c2}, nil)
	foD := module.NewFanout("foD", 1, d, []*module.Connector{d1, d2}, nil)
	gE := module.NewGateModule("gE", gate.And, []*module.Connector{a, b}, e)
	ip1 := module.NewNetlistModule("IP1", gate.HalfAdderIP(),
		[]*module.Connector{e, c1}, []*module.Connector{oip1, oip2})
	gF := module.NewGateModule("gF", gate.And, []*module.Connector{c2, d2}, f)
	gO1 := module.NewGateModule("gO1", gate.And, []*module.Connector{oip1, d1}, o1)
	gO2 := module.NewGateModule("gO2", gate.Or, []*module.Connector{oip2, f}, o2)
	po1 := module.NewPrimaryOutput("PO1", 1, o1)
	po2 := module.NewPrimaryOutput("PO2", 1, o2)

	circuit := module.NewCircuit("fig4", foC, foD, gE, ip1, gF, gO1, gO2, po1, po2)
	svc, err := NewLocalTestability(ip1.Netlist(), NetNames, true)
	if err != nil {
		return nil, err
	}

	// Flattened reference with IP1 internals prefixed "IP1.".
	flat := gate.NewNetlist("fig4flat")
	fa := flat.AddInput("A")
	fb := flat.AddInput("B")
	fc := flat.AddInput("C")
	fd := flat.AddInput("D")
	fe := flat.AddGate(gate.And, "E", fa, fb)
	ipOuts := flat.Embed(gate.HalfAdderIP(), []gate.NetID{fe, fc}, "IP1.")
	ff := flat.AddGate(gate.And, "F", fc, fd)
	fo1 := flat.AddGate(gate.And, "O1", ipOuts[0], fd)
	fo2 := flat.AddGate(gate.Or, "O2", ipOuts[1], ff)
	flat.MarkOutput(fo1)
	flat.MarkOutput(fo2)

	return &IPDesign{
		Circuit: circuit,
		Inputs:  []*module.Connector{a, b, c, d},
		Outputs: []*module.PrimaryOutput{po1, po2},
		Hosts:   []*Host{{Module: ip1, Service: svc}},
		Flat:    flat,
	}, nil
}

// RandomIPDesign builds a pseudo-random design embedding one IP component
// with a random gate-level implementation, plus its flattened reference —
// the workload of the virtual-vs-flat equivalence property tests. The
// outer structure is fixed; the component (nIn inputs, nGates gates, nOut
// outputs) varies with the seed.
//
// Topology (5 primary inputs x0..x4, component "IP" with 3 inputs and 2
// outputs): g1 = x0·x1, g2 = x2+x3, g3 = x4⊕x0; IP(g1, g2, g3) → c0, c1;
// O1 = NAND(c0, c1), O2 = c1 + g2.
func RandomIPDesign(nGates int, seed int64) (*IPDesign, error) {
	comp := gate.RandomCombinational(3, nGates, 2, seed)

	x := make([]*module.Connector, 5)
	for i := range x {
		x[i] = module.NewBitConnector("x" + strconv.Itoa(i))
	}
	x0a := module.NewBitConnector("x0a")
	x0b := module.NewBitConnector("x0b")
	g2a := module.NewBitConnector("g2a")
	g2b := module.NewBitConnector("g2b")
	c1a := module.NewBitConnector("c1a")
	c1b := module.NewBitConnector("c1b")
	g1 := module.NewBitConnector("g1")
	g2 := module.NewBitConnector("g2")
	g3 := module.NewBitConnector("g3")
	c0 := module.NewBitConnector("c0")
	c1 := module.NewBitConnector("c1")
	o1 := module.NewBitConnector("o1")
	o2 := module.NewBitConnector("o2")

	fo0 := module.NewFanout("fo0", 1, x[0], []*module.Connector{x0a, x0b}, nil)
	mg1 := module.NewGateModule("mg1", gate.And, []*module.Connector{x0a, x[1]}, g1)
	mg2 := module.NewGateModule("mg2", gate.Or, []*module.Connector{x[2], x[3]}, g2)
	fog2 := module.NewFanout("fog2", 1, g2, []*module.Connector{g2a, g2b}, nil)
	mg3 := module.NewGateModule("mg3", gate.Xor, []*module.Connector{x[4], x0b}, g3)
	ip := module.NewNetlistModule("IP", comp,
		[]*module.Connector{g1, g2a, g3}, []*module.Connector{c0, c1})
	foc1 := module.NewFanout("foc1", 1, c1, []*module.Connector{c1a, c1b}, nil)
	mo1 := module.NewGateModule("mo1", gate.Nand, []*module.Connector{c0, c1a}, o1)
	mo2 := module.NewGateModule("mo2", gate.Or, []*module.Connector{c1b, g2b}, o2)
	po1 := module.NewPrimaryOutput("PO1", 1, o1)
	po2 := module.NewPrimaryOutput("PO2", 1, o2)

	circuit := module.NewCircuit("randip",
		fo0, mg1, mg2, fog2, mg3, ip, foc1, mo1, mo2, po1, po2)
	svc, err := NewLocalTestability(comp, NetNames, true)
	if err != nil {
		return nil, err
	}

	flat := gate.NewNetlist("randipflat")
	// 5 inputs and 5 glue gates around the component's non-input nets
	// and gates.
	flat.Reserve(10+comp.NumNets()-len(comp.Inputs()), 5+comp.NumGates())
	fx := make([]gate.NetID, 5)
	for i := range fx {
		fx[i] = flat.AddInput("x" + strconv.Itoa(i))
	}
	fg1 := flat.AddGate(gate.And, "g1", fx[0], fx[1])
	fg2 := flat.AddGate(gate.Or, "g2", fx[2], fx[3])
	fg3 := flat.AddGate(gate.Xor, "g3", fx[4], fx[0])
	cOuts := flat.Embed(comp, []gate.NetID{fg1, fg2, fg3}, "IP.")
	fo1 := flat.AddGate(gate.Nand, "o1", cOuts[0], cOuts[1])
	fo2 := flat.AddGate(gate.Or, "o2", cOuts[1], fg2)
	flat.MarkOutput(fo1)
	flat.MarkOutput(fo2)

	return &IPDesign{
		Circuit: circuit,
		Inputs:  x,
		Outputs: []*module.PrimaryOutput{po1, po2},
		Hosts:   []*Host{{Module: ip, Service: svc}},
		Flat:    flat,
	}, nil
}

// RandomTwoIPDesign builds a design embedding TWO independent IP
// components from (conceptually) different providers — the Figure 1
// topology — plus the flattened reference. Component "U1" (3 in, 2 out)
// feeds component "U2" (2 in, 1 out) through user-owned glue, so the
// protocol must compose fault lists and detection tables across hosts.
//
// Topology (4 primary inputs y0..y3): h1 = y0·y1, h2 = y2⊕y3;
// U1(h1, h2, y0) → u0, u1; U2(u0, u1) → w0; O1 = w0 + y3, O2 = NOT u1.
func RandomTwoIPDesign(nGates int, seed int64) (*IPDesign, error) {
	comp1 := gate.RandomCombinational(3, nGates, 2, seed)
	comp2 := gate.RandomCombinational(2, nGates/2+1, 1, seed+1000)

	y := make([]*module.Connector, 4)
	for i := range y {
		y[i] = module.NewBitConnector("y" + strconv.Itoa(i))
	}
	y0a := module.NewBitConnector("y0a")
	y0b := module.NewBitConnector("y0b")
	y3a := module.NewBitConnector("y3a")
	y3b := module.NewBitConnector("y3b")
	u1a := module.NewBitConnector("u1a")
	u1b := module.NewBitConnector("u1b")
	h1 := module.NewBitConnector("h1")
	h2 := module.NewBitConnector("h2")
	u0 := module.NewBitConnector("u0")
	u1 := module.NewBitConnector("u1")
	w0 := module.NewBitConnector("w0")
	o1 := module.NewBitConnector("o1")
	o2 := module.NewBitConnector("o2")

	fo0 := module.NewFanout("fo0", 1, y[0], []*module.Connector{y0a, y0b}, nil)
	fo3 := module.NewFanout("fo3", 1, y[3], []*module.Connector{y3a, y3b}, nil)
	mh1 := module.NewGateModule("mh1", gate.And, []*module.Connector{y0a, y[1]}, h1)
	mh2 := module.NewGateModule("mh2", gate.Xor, []*module.Connector{y[2], y3a}, h2)
	ip1 := module.NewNetlistModule("U1", comp1,
		[]*module.Connector{h1, h2, y0b}, []*module.Connector{u0, u1})
	fou1 := module.NewFanout("fou1", 1, u1, []*module.Connector{u1a, u1b}, nil)
	ip2 := module.NewNetlistModule("U2", comp2,
		[]*module.Connector{u0, u1a}, []*module.Connector{w0})
	mo1 := module.NewGateModule("mo1", gate.Or, []*module.Connector{w0, y3b}, o1)
	mo2 := module.NewGateModule("mo2", gate.Not, []*module.Connector{u1b}, o2)
	po1 := module.NewPrimaryOutput("PO1", 1, o1)
	po2 := module.NewPrimaryOutput("PO2", 1, o2)

	circuit := module.NewCircuit("twoip",
		fo0, fo3, mh1, mh2, ip1, fou1, ip2, mo1, mo2, po1, po2)
	svc1, err := NewLocalTestability(comp1, NetNames, true)
	if err != nil {
		return nil, err
	}
	svc2, err := NewLocalTestability(comp2, NetNames, true)
	if err != nil {
		return nil, err
	}

	flat := gate.NewNetlist("twoipflat")
	// 4 inputs and 4 glue gates around both components' non-input nets
	// and gates.
	flat.Reserve(8+comp1.NumNets()-len(comp1.Inputs())+comp2.NumNets()-len(comp2.Inputs()),
		4+comp1.NumGates()+comp2.NumGates())
	fy := make([]gate.NetID, 4)
	for i := range fy {
		fy[i] = flat.AddInput("y" + strconv.Itoa(i))
	}
	fh1 := flat.AddGate(gate.And, "h1", fy[0], fy[1])
	fh2 := flat.AddGate(gate.Xor, "h2", fy[2], fy[3])
	c1Outs := flat.Embed(comp1, []gate.NetID{fh1, fh2, fy[0]}, "U1.")
	c2Outs := flat.Embed(comp2, []gate.NetID{c1Outs[0], c1Outs[1]}, "U2.")
	fo1 := flat.AddGate(gate.Or, "o1", c2Outs[0], fy[3])
	fo2 := flat.AddGate(gate.Not, "o2", c1Outs[1])
	flat.MarkOutput(fo1)
	flat.MarkOutput(fo2)

	return &IPDesign{
		Circuit: circuit,
		Inputs:  y,
		Outputs: []*module.PrimaryOutput{po1, po2},
		Hosts: []*Host{
			{Module: ip1, Service: svc1},
			{Module: ip2, Service: svc2},
		},
		Flat: flat,
	}, nil
}

// NewVirtual returns a VirtualSimulator wired over the design with all
// hosts registered.
func (d *IPDesign) NewVirtual() *VirtualSimulator {
	vs := NewVirtualSimulator(d.Circuit, d.Inputs, d.Outputs)
	for _, h := range d.Hosts {
		vs.AddHost(h.Module, h.Service)
	}
	return vs
}
