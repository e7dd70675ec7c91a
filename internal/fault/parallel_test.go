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

// runWithWorkers builds a fresh instance of the design via build and runs
// virtual fault simulation with the given worker count.
func runWithWorkers(t *testing.T, build func() (*IPDesign, error), patterns [][]signal.Bit, workers int) *Result {
	t.Helper()
	d, err := build()
	if err != nil {
		t.Fatal(err)
	}
	vs := d.NewVirtual()
	vs.Workers = workers
	res, err := vs.Run(patterns)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

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

// TestVirtualDeterministicAcrossWorkerCounts is the parallel engine's
// headline contract: the Result of a virtual fault simulation — including
// the order of every per-pattern fault list — must be byte-identical for
// any worker count. Runs under -race in CI, so it also shakes out data
// races in the concurrent detection-table and injection fan-outs.
func TestVirtualDeterministicAcrossWorkerCounts(t *testing.T) {
	designs := []struct {
		name  string
		build func() (*IPDesign, error)
		nIn   int
	}{
		{"figure4", Figure4Design, 4},
		{"oneIP", func() (*IPDesign, error) { return RandomIPDesign(15, 3) }, 5},
		{"twoIP", func() (*IPDesign, error) { return RandomTwoIPDesign(12, 2) }, 4},
	}
	for _, dc := range designs {
		t.Run(dc.name, func(t *testing.T) {
			patterns := exhaustivePatterns(dc.nIn)
			serial := runWithWorkers(t, dc.build, patterns, 1)
			for _, workers := range []int{2, 8} {
				parallel := runWithWorkers(t, dc.build, patterns, workers)
				requireIdenticalResults(t, serial, parallel)
			}
		})
	}
}

// TestVirtualDeterministicWithBogusProvider covers the adversarial case:
// a provider whose detection-table rows overlap and name unpublished
// faults. The merge step re-filters each row's original fault list in
// serial order, so even here the Result must not depend on worker count.
func TestVirtualDeterministicWithBogusProvider(t *testing.T) {
	build := func() (*IPDesign, error) {
		d, err := Figure4Design()
		if err != nil {
			return nil, err
		}
		d.Hosts[0].Service = bogusService{}
		return d, nil
	}
	patterns := exhaustivePatterns(4)
	serial := runWithWorkers(t, build, patterns, 1)
	parallel := runWithWorkers(t, build, patterns, 8)
	requireIdenticalResults(t, serial, parallel)
}

// TestVirtualRunReleasesAllState is the state-release regression test.
// Module state cannot outlive a Run — it lives in the Run's recycled
// schedulers — but every simulation records primary-output history in
// the design under its own SchedulerID. Each of the Run's hundreds of
// simulations must observe under a fresh ID (recycling renews it) and
// release that history, or histories grow without bound across a long
// fault-simulation campaign.
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
	vs.Workers = 4
	if _, err := vs.Run(exhaustivePatterns(4)); err != nil {
		t.Fatal(err)
	}
	if want := vs.Stats.FaultFreeRuns + vs.Stats.InjectionRuns; len(runs) != want {
		t.Errorf("outputs observed %d distinct run IDs, want one per simulation (%d)", len(runs), want)
	}
	requireNoHistories(t, d, "after Run")
}

// requireNoHistories fails if any output of the design still holds a
// scheduler's observation history.
func requireNoHistories(t *testing.T, d *IPDesign, when string) {
	t.Helper()
	for _, po := range d.Outputs {
		if n := po.HistoryCount(); n != 0 {
			t.Errorf("output %s still holds %d scheduler histories %s", po.ModuleName(), n, when)
		}
	}
}

// failingService errors on every detection-table query, driving Run down
// its error path mid-pattern.
type failingService struct{}

func (failingService) FaultList() ([]string, error) { return []string{"f_sa0"}, nil }
func (failingService) DetectionTable([]signal.Bit) (*DetectionTable, error) {
	return nil, errors.New("provider down")
}

// TestVirtualRunReleasesHistoriesOnError: a Run abandoned on an error
// path must still release the histories of every simulation it ran —
// whether the provider fails after the fault-free run recorded its
// outputs, or a simulation itself fails (event limit).
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
			requireNoHistories(t, d, "on the error path")
		})
	}
}

// TestSerialSimulateWorkersEquivalence: the flat reference simulator must
// also return byte-identical Results at any worker count.
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
// running at the same time, must each reach their serial Result. Each
// Run owns only the primary-output histories of its own schedulers, so a
// short Run finishing must not wipe the histories a long one is still
// reading.
func TestConcurrentRunsShareDesign(t *testing.T) {
	d, err := RandomTwoIPDesign(120, 1999)
	if err != nil {
		t.Fatal(err)
	}
	long := exhaustivePatterns(4)
	short := long[:2]
	serial := func(patterns [][]signal.Bit) *Result {
		vs := d.NewVirtual()
		vs.Workers = 1
		res, err := vs.Run(patterns)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := [2]*Result{serial(long), serial(short)}
	for iter := 0; iter < 50; iter++ {
		var got [2]*Result
		var errs [2]error
		var wg sync.WaitGroup
		for k, patterns := range [2][][]signal.Bit{long, short} {
			wg.Add(1)
			go func(k int, patterns [][]signal.Bit) {
				defer wg.Done()
				vs := d.NewVirtual()
				vs.Workers = 2
				got[k], errs[k] = vs.Run(patterns)
			}(k, patterns)
		}
		wg.Wait()
		for k := range got {
			if errs[k] != nil {
				t.Fatalf("iteration %d run %d: %v", iter, k, errs[k])
			}
			if !reflect.DeepEqual(want[k].Detected, got[k].Detected) || !reflect.DeepEqual(want[k].PerPattern, got[k].PerPattern) {
				t.Fatalf("iteration %d run %d diverged from its serial Result:\n  serial: %v\n  got:    %v",
					iter, k, want[k].PerPattern, got[k].PerPattern)
			}
		}
	}
	requireNoHistories(t, d, "after the concurrent Runs")
}

// TestVirtualRunBesideReorderedController: virtual fault simulation on
// two workers races a StartConcurrent fan-out over the same design
// whose controllers, one per pattern, list the handlers in reverse. The design is fresh
// every iteration, so either side may claim the handlers' slot indices
// first and the other must fall back to the map. Every Run must match
// its serial Result, and every reversed-order run must settle to the
// fault-free outputs of a reference design built from the same seed.
func TestVirtualRunBesideReorderedController(t *testing.T) {
	patterns := exhaustivePatterns(4)
	ref, err := RandomTwoIPDesign(120, 1999)
	if err != nil {
		t.Fatal(err)
	}
	refVS := ref.NewVirtual()
	refVS.Workers = 1
	want, err := refVS.Run(patterns)
	if err != nil {
		t.Fatal(err)
	}
	refRun := refVS.newRun()
	wantOut := make([][]signal.Value, len(patterns))
	for i, p := range patterns {
		refRun.pattern = p
		if wantOut[i], err = refVS.simulate(refRun.ctrl, refRun.sched(0), nil); err != nil {
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
			vs.Workers = 2
			got, err := vs.Run(patterns)
			if err != nil {
				t.Errorf("iteration %d: %v", iter, err)
				return
			}
			if !reflect.DeepEqual(want.Detected, got.Detected) || !reflect.DeepEqual(want.PerPattern, got.PerPattern) {
				t.Errorf("iteration %d: Run diverged from the serial Result:\n  serial: %v\n  got:    %v", iter, want.PerPattern, got.PerPattern)
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
				for k, st := range ctrl.StartConcurrent(2, nil, nil) {
					if st.Err != nil {
						t.Errorf("iteration %d pattern %d run %d: %v", iter, i, k, st.Err)
					}
					for j, po := range d.Outputs {
						h := po.History(st.Scheduler)
						po.ReleaseHistory(st.Scheduler)
						if len(h) == 0 || h[len(h)-1].Value != wantOut[i][j] {
							t.Errorf("iteration %d pattern %d run %d: output %s settled to %v, want %v", iter, i, k, po.ModuleName(), h, wantOut[i][j])
						}
					}
				}
			}
		}()
		wg.Wait()
		requireNoHistories(t, d, "after the concurrent runs")
	}
}
