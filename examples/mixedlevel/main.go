// Mixedlevel exercises the design-model features the paper highlights
// beyond the headline experiments: a mixed gate-level/RTL description
// with interface adapters, an autonomous clock generator built on the
// self-trigger mechanism, explicit fan-out modules with per-branch
// delays, a netlist-backed gate-level component next to behavioral RTL,
// and two estimation setups running CONCURRENTLY over the same design on
// independent schedulers.
//
// The design: a clock drives a counter; the counter value is split into
// bits, fed through a gate-level ripple-carry adder (as a NetlistModule)
// that adds a constant, and reassembled into a word monitored at the
// primary output. Area estimators on the RTL parts plus the adder's
// gate count compose into the design total — the paper's "local,
// additive property".
package main

import (
	"fmt"
	"log"

	gocad "repro"
	"repro/internal/estim"
	"repro/internal/signal"
	"repro/internal/sim"
)

func main() {
	const width = 4

	// Clocking: an autonomous generator (self-trigger) and a counter.
	clk := gocad.NewBitConnector("clk")
	clkA := gocad.NewBitConnector("clkA")
	clkB := gocad.NewBitConnector("clkB")
	q := gocad.NewWordConnector("q", width)

	gen := gocad.NewClockGen("CLKGEN", 5, 12, clk)
	// Fan-out with per-branch delays: the counter sees the edge
	// immediately, a debug monitor sees it 2 time units later.
	fo := gocad.NewFanout("CLKTREE", 1, clk, []*gocad.Connector{clkA, clkB}, []sim.Time{0, 2})
	cnt := gocad.NewCounter("COUNTER", width, clkA, q)
	clkMon := gocad.NewPrimaryOutput("CLKMON", 1, clkB)

	// RTL -> gate-level boundary: split the counter word into bits.
	cntBits := make([]*gocad.Connector, width)
	for i := range cntBits {
		cntBits[i] = gocad.NewBitConnector(fmt.Sprintf("cnt%d", i))
	}
	split := gocad.NewWordToBits("SPLIT", width, q, cntBits)

	// Constant second operand (binary 0011 = 3), bit by bit.
	constBits := make([]*gocad.Connector, width)
	consts := make([]gocad.Module, width)
	for i := range constBits {
		constBits[i] = gocad.NewBitConnector(fmt.Sprintf("k%d", i))
		bit := gocad.B0
		if i < 2 {
			bit = gocad.B1
		}
		consts[i] = gocad.NewConstInput(fmt.Sprintf("K%d", i), 1,
			signal.BitValue{B: bit}, constBits[i])
	}

	// The gate-level adder: a structural netlist instantiated as a
	// module among RTL neighbours. Inputs a0..a3 then b0..b3; outputs
	// s0..s3 and carry.
	adderNl := gocad.RippleAdder(width)
	sumBits := make([]*gocad.Connector, width+1)
	for i := range sumBits {
		sumBits[i] = gocad.NewBitConnector(fmt.Sprintf("s%d", i))
	}
	adderIns := append(append([]*gocad.Connector{}, cntBits...), constBits...)
	adder := gocad.NewNetlistModule("ADDER", adderNl, adderIns, sumBits)

	// Gate-level -> RTL boundary: reassemble the sum word.
	sum := gocad.NewWordConnector("sum", width+1)
	join := gocad.NewBitsToWord("JOIN", width+1, sumBits, sum)
	out := gocad.NewPrimaryOutput("OUT", width+1, sum)

	// Estimators: data-sheet areas on the RTL parts; the adder's area
	// from its cell count via the PPP library.
	cnt.AddEstimator(&estim.Constant{
		Meta: estim.Meta{Name: "area-ds", Param: estim.ParamArea}, Value: 12})
	adder.AddEstimator(&estim.Constant{
		Meta:  estim.Meta{Name: "area-cells", Param: estim.ParamArea},
		Value: gocad.AreaOf(adderNl, nil)})

	circuit := gocad.NewCircuit("mixed",
		gen, fo, cnt, clkMon, split, join, adder, out)
	circuit.Add(consts...)
	simu := gocad.NewSimulation(circuit)

	// Two setups, two concurrent schedulers, zero interference.
	areaSetup := gocad.NewSetup("area")
	areaSetup.Set(gocad.ParamArea, gocad.Criteria{})
	noSetup := (*gocad.Setup)(nil)
	stats := simu.StartConcurrent([]*gocad.Setup{areaSetup, noSetup})
	for _, st := range stats {
		if st.Err != nil {
			log.Fatal(st.Err)
		}
	}

	// Results: counter+3 must appear at the output on every clock cycle.
	// Each run's history is read from that run's own scheduler.
	fmt.Println("mixed-level simulation over 12 clock cycles:")
	for _, run := range stats {
		h := out.History(run.Scheduler)
		fmt.Printf("  scheduler %d: %d output events, %d tokens delivered\n",
			run.Scheduler.ID(), len(h), run.Delivered)
		if len(h) > 0 {
			last := h[len(h)-1].Value.(signal.WordValue).W
			v, _ := last.Uint64()
			fmt.Printf("    final sum %s (= %d)\n", last, v)
		}
	}
	fmt.Printf("clock edges observed by the delayed monitor branch: %d\n",
		len(clkMon.History(stats[1].Scheduler)))
	fmt.Printf("design area (additive composition): %.1f equivalent gates\n",
		areaSetup.DesignTotal(gocad.ParamArea))
	for _, w := range areaSetup.Warnings() {
		fmt.Printf("  note: %s\n", w)
	}
}
