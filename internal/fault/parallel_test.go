package fault

import (
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/module"
	"repro/internal/signal"
	"repro/internal/sim"
)

// requireIdenticalResults asserts two Results are byte-identical: total,
// the detection map (fault → first pattern), and the ORDER of every
// per-pattern detection list.
func requireIdenticalResults(t *testing.T, serial, parallel *Result) {
	t.Helper()
	if serial.Total != parallel.Total {
		t.Errorf("Total: serial %d, parallel %d", serial.Total, parallel.Total)
	}
	if !reflect.DeepEqual(serial.Detected, parallel.Detected) {
		t.Errorf("Detected maps differ:\n  serial:   %v\n  parallel: %v", serial.Detected, parallel.Detected)
	}
	if !reflect.DeepEqual(serial.PerPattern, parallel.PerPattern) {
		t.Errorf("PerPattern order differs:\n  serial:   %v\n  parallel: %v", serial.PerPattern, parallel.PerPattern)
	}
}

// TestVirtualRunReleasesAllState is the state-release regression test.
// Module state cannot outlive a Run: it lives in the Run's recycled
// scheduler, primary-output histories included. Each of the Run's
// hundreds of simulations must still observe under a fresh SchedulerID
// (recycling renews it), or a run could read state an earlier one left.
func TestVirtualRunReleasesAllState(t *testing.T) {
	d, err := Figure4Design()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	runs := make(map[sim.SchedulerID]bool)
	d.Outputs[0].OnValue = func(ctx *module.Ctx, _ module.Observation) {
		mu.Lock()
		runs[ctx.Sim.SchedulerID()] = true
		mu.Unlock()
	}
	vs := d.NewVirtual()
	if _, err := vs.Run(exhaustivePatterns(4)); err != nil {
		t.Fatal(err)
	}
	if want := vs.Stats.FaultFreeRuns + vs.Stats.InjectionRuns; len(runs) != want {
		t.Errorf("outputs observed %d distinct run IDs, want one per simulation (%d)", len(runs), want)
	}
}

// failingService errors on every detection-table query, driving Run down
// its error path mid-pattern.
type failingService struct{}

func (failingService) FaultList() ([]string, error) { return []string{"f_sa0"}, nil }
func (failingService) DetectionTable([]signal.Bit) (*DetectionTable, error) {
	return nil, errors.New("provider down")
}

// TestVirtualRunReleasesHistoriesOnError: a Run abandoned mid-pattern
// reports the error — whether the provider fails after the fault-free
// run recorded its outputs, or a simulation itself fails (event limit).
// The histories are run state of the Run's schedulers, so they go with
// them on that path too.
func TestVirtualRunReleasesHistoriesOnError(t *testing.T) {
	for _, tc := range []struct {
		name string
		prep func(*IPDesign) *VirtualSimulator
	}{
		{"provider", func(d *IPDesign) *VirtualSimulator {
			d.Hosts[0].Service = failingService{}
			return d.NewVirtual()
		}},
		{"event-limit", func(d *IPDesign) *VirtualSimulator {
			vs := d.NewVirtual()
			vs.EventLimit = 3
			return vs
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := Figure4Design()
			if err != nil {
				t.Fatal(err)
			}
			vs := tc.prep(d)
			if _, err := vs.Run(exhaustivePatterns(4)); err == nil {
				t.Fatal("error not reported")
			}
		})
	}
}

// TestSerialSimulateWorkersEquivalence: the flat reference simulator must
// return byte-identical Results at any worker count.
func TestSerialSimulateWorkersEquivalence(t *testing.T) {
	d, err := RandomTwoIPDesign(12, 5)
	if err != nil {
		t.Fatal(err)
	}
	faults := Collapse(d.Flat)
	patterns := exhaustivePatterns(4)
	serial, err := SerialSimulateFaultsWorkers(d.Flat, faults, patterns, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		parallel, err := SerialSimulateFaultsWorkers(d.Flat, faults, patterns, workers)
		if err != nil {
			t.Fatal(err)
		}
		requireIdenticalResults(t, serial, parallel)
	}
}

// TestConcurrentRunsShareDesign: VirtualSimulators over ONE design,
// running at the same time, must each reach the Result of a Run alone.
// Each Run reads primary-output histories only from its own scheduler, so a
// short Run finishing cannot touch the histories a long one is still
// reading.
func TestConcurrentRunsShareDesign(t *testing.T) {
	d, err := RandomTwoIPDesign(120, 1999)
	if err != nil {
		t.Fatal(err)
	}
	long := exhaustivePatterns(4)
	short := long[:2]
	alone := func(patterns [][]signal.Bit) *Result {
		vs := d.NewVirtual()
		res, err := vs.Run(patterns)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := [2]*Result{alone(long), alone(short)}
	for iter := 0; iter < 50; iter++ {
		var got [2]*Result
		var errs [2]error
		var wg sync.WaitGroup
		for k, patterns := range [2][][]signal.Bit{long, short} {
			wg.Add(1)
			go func(k int, patterns [][]signal.Bit) {
				defer wg.Done()
				vs := d.NewVirtual()
				got[k], errs[k] = vs.Run(patterns)
			}(k, patterns)
		}
		wg.Wait()
		for k := range got {
			if errs[k] != nil {
				t.Fatalf("iteration %d run %d: %v", iter, k, errs[k])
			}
			if !reflect.DeepEqual(want[k].Detected, got[k].Detected) || !reflect.DeepEqual(want[k].PerPattern, got[k].PerPattern) {
				t.Fatalf("iteration %d run %d diverged from its Result alone:\n  alone: %v\n  got:   %v",
					iter, k, want[k].PerPattern, got[k].PerPattern)
			}
		}
	}
}

// TestVirtualRunBesideReorderedController: virtual fault simulation
// races a two-run Pool fan-out of StartOn over the same
// design whose controllers, one per pattern, list the handlers in
// reverse. The design is fresh every iteration, so either side may
// claim the handlers' slot indices first and the other must fall back
// to the map. Every Run must match
// the Result of a Run alone, and every reversed-order run must settle to the
// fault-free outputs of a reference design built from the same seed.
func TestVirtualRunBesideReorderedController(t *testing.T) {
	patterns := exhaustivePatterns(4)
	ref, err := RandomTwoIPDesign(120, 1999)
	if err != nil {
		t.Fatal(err)
	}
	refVS := ref.NewVirtual()
	want, err := refVS.Run(patterns)
	if err != nil {
		t.Fatal(err)
	}
	refRun := refVS.newRun()
	wantOut := make([][]signal.Value, len(patterns))
	for i, p := range patterns {
		refRun.pattern = p
		wantOut[i] = make([]signal.Value, len(ref.Outputs))
		if err := refRun.simulate(nil, wantOut[i]); err != nil {
			t.Fatal(err)
		}
	}

	for iter := 0; iter < 10; iter++ {
		d, err := RandomTwoIPDesign(120, 1999)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			vs := d.NewVirtual()
			got, err := vs.Run(patterns)
			if err != nil {
				t.Errorf("iteration %d: %v", iter, err)
				return
			}
			if !reflect.DeepEqual(want.Detected, got.Detected) || !reflect.DeepEqual(want.PerPattern, got.PerPattern) {
				t.Errorf("iteration %d: Run diverged from its Result alone:\n  alone: %v\n  got:   %v", iter, want.PerPattern, got.PerPattern)
			}
		}()
		go func() {
			defer wg.Done()
			// Not newRun: its controller would claim the slot
			// indices in list order on this side before the race.
			r := &virtualRun{VirtualSimulator: d.NewVirtual()}
			reversed := d.Circuit.Handlers()
			slices.Reverse(reversed)
			for i, p := range patterns {
				ctrl := sim.NewController(reversed...)
				ctrl.Seed = r.seed
				r.pattern = p
				stats := make([]sim.Stats, 2)
				sim.Pool{Workers: 2}.For(2, func(k int) error {
					stats[k] = ctrl.StartOn(sim.NewScheduler(), nil, nil)
					return nil
				})
				for k, st := range stats {
					if st.Err != nil {
						t.Errorf("iteration %d pattern %d run %d: %v", iter, i, k, st.Err)
					}
					for j, po := range d.Outputs {
						h := po.History(st.Scheduler)
						if len(h) == 0 || h[len(h)-1].Value != wantOut[i][j] {
							t.Errorf("iteration %d pattern %d run %d: output %s settled to %v, want %v", iter, i, k, po.ModuleName(), h, wantOut[i][j])
						}
					}
				}
			}
		}()
		wg.Wait()
	}
}
