package shard

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/module"
	"repro/internal/sim"
)

// buildStaggered returns a two-datapath design whose stimulus periods
// are coprime, so simulation instants alternate between the datapaths —
// the shape that exercises both delta rounds (shared instants) and solo
// turns (instants owned by one shard).
func buildStaggered(patterns int) (*module.Circuit, []*module.PrimaryOutput) {
	const w = 8
	a := module.NewWordConnector("A", w)
	ar := module.NewWordConnector("AR", w)
	b := module.NewWordConnector("B", w)
	br := module.NewWordConnector("BR", w)
	p := module.NewWordConnector("P", 2*w)
	c := module.NewWordConnector("C", w)
	cr := module.NewWordConnector("CR", w)
	d := module.NewWordConnector("D", w)
	s := module.NewWordConnector("S", w+1)

	ina := module.NewRandomPrimaryInput("INA", w, 7, patterns, 10, a)
	rega := module.NewRegister("REGA", w, a, ar)
	inb := module.NewRandomPrimaryInput("INB", w, 8, patterns, 10, b)
	regb := module.NewRegister("REGB", w, b, br)
	mult := module.NewMult("MULT", w, ar, br, p)
	out1 := module.NewPrimaryOutput("OUT1", 2*w, p)

	inc := module.NewRandomPrimaryInput("INC", w, 9, patterns, 7, c)
	regc := module.NewRegister("REGC", w, c, cr)
	ind := module.NewRandomPrimaryInput("IND", w, 10, patterns, 7, d)
	add := module.NewAdder("ADD", w, cr, d, s)
	out2 := module.NewPrimaryOutput("OUT2", w+1, s)

	left := module.NewCircuit("left", ina, rega, inb, regb, mult, out1)
	right := module.NewCircuit("right", inc, regc, ind, add, out2)
	top := module.NewCircuit("top", left, right)
	return top, []*module.PrimaryOutput{out1, out2}
}

// historyFingerprint renders the observation streams of the outputs, as
// recorded under the given per-output scheduler IDs, into one comparable
// string.
func historyFingerprint(outs []*module.PrimaryOutput, ids []sim.SchedulerID) string {
	var sb strings.Builder
	for i, out := range outs {
		fmt.Fprintf(&sb, "%s:", out.ModuleName())
		for _, obs := range out.History(ids[i]) {
			fmt.Fprintf(&sb, " %d=%v", obs.Time, obs.Value)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// classicFingerprint runs the design on one scheduler via the standard
// simulation controller and fingerprints the outputs.
func classicFingerprint(t *testing.T, c *module.Circuit, outs []*module.PrimaryOutput) string {
	t.Helper()
	stats := module.NewSimulation(c).Start(nil)
	if stats.Err != nil {
		t.Fatal(stats.Err)
	}
	ids := make([]sim.SchedulerID, len(outs))
	for i := range outs {
		ids[i] = stats.Scheduler
	}
	fp := historyFingerprint(outs, ids)
	for _, out := range outs {
		out.ReleaseHistory(stats.Scheduler)
	}
	return fp
}

// shardedFingerprint runs the design through the shard engine and
// fingerprints the outputs under their owning schedulers.
func shardedFingerprint(t *testing.T, c *module.Circuit, outs []*module.PrimaryOutput, opts Options) (string, Stats) {
	t.Helper()
	stats := Run(c, opts)
	if stats.Err != nil {
		t.Fatalf("shards=%d window=%d workers=%d: %v", opts.Shards, opts.Window, opts.Workers, stats.Err)
	}
	ids := make([]sim.SchedulerID, len(outs))
	for i, out := range outs {
		ids[i] = stats.OwnerOf(out)
		if ids[i] == 0 {
			t.Fatalf("no owner recorded for %s", out.ModuleName())
		}
	}
	fp := historyFingerprint(outs, ids)
	for i, out := range outs {
		out.ReleaseHistory(ids[i])
	}
	return fp, stats
}

// TestShardedMatchesSingleScheduler: the headline invariant on a
// hand-built design — the sharded run's observation streams are
// byte-identical to the classic single-scheduler run at every shard and
// worker count.
func TestShardedMatchesSingleScheduler(t *testing.T) {
	circuit, outs := buildStaggered(40)
	want := classicFingerprint(t, circuit, outs)
	if !strings.Contains(want, "=") {
		t.Fatalf("baseline produced no observations:\n%s", want)
	}
	for _, shards := range []int{1, 2, 3, 8} {
		for _, workers := range []int{1, 0} {
			got, stats := shardedFingerprint(t, circuit, outs,
				Options{Shards: shards, Workers: workers})
			if got != want {
				t.Fatalf("shards=%d workers=%d diverged\n got:\n%s want:\n%s",
					shards, workers, got, want)
			}
			if stats.Delivered == 0 || stats.Instants == 0 {
				t.Fatalf("shards=%d: empty run stats %+v", shards, stats)
			}
			// A zero-cost cut (disconnected datapaths split cleanly)
			// legitimately has no cross traffic; any cut connector must
			// carry tokens on this design.
			if stats.CutCost > 0 && stats.CrossTokens == 0 {
				t.Fatalf("shards=%d: cut cost %d but no cross-shard tokens", shards, stats.CutCost)
			}
			if shards >= 3 && stats.CutCost == 0 {
				t.Fatalf("shards=%d: expected a nonzero connector cut", shards)
			}
		}
	}
}

// TestShardWindowShrinkInvariance: shrinking the conservative window
// never changes results — only barrier count and runahead. The staggered
// design guarantees solo turns exist at a generous window.
func TestShardWindowShrinkInvariance(t *testing.T) {
	circuit, outs := buildStaggered(60)
	want := classicFingerprint(t, circuit, outs)
	var prevBarriers int
	first := true
	for _, window := range []int{64, 8, 2, 1} {
		got, stats := shardedFingerprint(t, circuit, outs,
			Options{Shards: 2, Window: window})
		if got != want {
			t.Fatalf("window=%d diverged from single-scheduler run", window)
		}
		if window == 64 && stats.SoloTurns == 0 {
			t.Fatalf("window=64 recorded no solo turns on a staggered design: %+v", stats)
		}
		if window == 1 && stats.SoloTurns != 0 {
			t.Fatalf("window=1 must barrier every instant, got %d solo turns", stats.SoloTurns)
		}
		if !first && stats.Barriers < prevBarriers {
			t.Fatalf("window=%d has fewer barriers (%d) than the wider window before it (%d)",
				window, stats.Barriers, prevBarriers)
		}
		first = false
		prevBarriers = stats.Barriers
	}
}

// TestShardEventLimit: the shared event budget surfaces the kernel's
// sentinel error instead of running away.
func TestShardEventLimit(t *testing.T) {
	circuit, _ := buildStaggered(50)
	stats := Run(circuit, Options{Shards: 2, EventLimit: 10})
	if !errors.Is(stats.Err, sim.ErrEventLimit) {
		t.Fatalf("err = %v, want wrapped sim.ErrEventLimit", stats.Err)
	}
}

// TestShardUntilBound: Until stops the sharded run at the same horizon
// as the single-scheduler run.
func TestShardUntilBound(t *testing.T) {
	const until = 35
	circuit, outs := buildStaggered(40)

	simu := module.NewSimulation(circuit)
	simu.Until = until
	st := simu.Start(nil)
	if st.Err != nil {
		t.Fatal(st.Err)
	}
	ids := make([]sim.SchedulerID, len(outs))
	for i := range outs {
		ids[i] = st.Scheduler
	}
	want := historyFingerprint(outs, ids)
	for _, out := range outs {
		out.ReleaseHistory(st.Scheduler)
	}

	got, stats := shardedFingerprint(t, circuit, outs,
		Options{Shards: 3, Until: until})
	if got != want {
		t.Fatalf("Until=%d diverged\n got:\n%s want:\n%s", until, got, want)
	}
	if stats.EndTime > until {
		t.Fatalf("EndTime %d beyond Until %d", stats.EndTime, until)
	}
}

// TestShardStateReleased: a sharded run leaves nothing behind in the
// design but its product. Module state lives in the shard schedulers'
// slots and is dropped with them; what remains is exactly one
// observation history per output, recorded under the output's owning
// shard, and releasing it returns every output to its pre-run baseline.
func TestShardStateReleased(t *testing.T) {
	circuit, outs := buildStaggered(10)
	before := make([]int, len(outs))
	for i, out := range outs {
		before[i] = out.HistoryCount()
	}
	stats := Run(circuit, Options{Shards: 3})
	if stats.Err != nil {
		t.Fatal(stats.Err)
	}
	for i, out := range outs {
		if got := out.HistoryCount(); got != before[i]+1 {
			t.Fatalf("%s holds %d histories after the run, want %d", out.ModuleName(), got, before[i]+1)
		}
		if len(out.History(stats.OwnerOf(out))) == 0 {
			t.Fatalf("%s recorded nothing under its owning shard", out.ModuleName())
		}
		out.ReleaseHistory(stats.OwnerOf(out))
		if got := out.HistoryCount(); got != before[i] {
			t.Fatalf("%s holds %d histories after release, want %d", out.ModuleName(), got, before[i])
		}
	}
}
