package core

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/netsim"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/ from the current code")

const goldenFingerprints = "testdata/golden/fingerprints.txt"

// fingerprintCorpus renders Result.Fingerprint for a fixed set of runs:
// the three local-host Table 2 rows at DefaultConfig, AL at smallConfig,
// then ER and MR at smallConfig across pipeline depth {1, 8} and
// estimation cache {none, cold, warm} — the knobs that reshape wire
// traffic. A warm run reuses the cache its cold twin just filled. Any
// change to the wire protocol or the remote estimation path must leave
// this text unchanged.
func fingerprintCorpus(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	emit := func(label string, sc Scenario, cfg Config) {
		res, err := Run(sc, cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		fmt.Fprintf(&buf, "%s %s\n", label, res.Fingerprint())
	}
	for _, row := range []struct {
		name    string
		sc      Scenario
		profile netsim.Profile
	}{
		{"AL", AllLocal, netsim.InProcess},
		{"ER", EstimatorRemote, netsim.Local},
		{"MR", MultiplierRemote, netsim.Local},
	} {
		cfg := DefaultConfig()
		cfg.Profile = row.profile
		emit(fmt.Sprintf("table2/%s/%s", row.name, row.profile.Name), row.sc, cfg)
	}
	emit("small/AL", AllLocal, smallConfig())
	for _, sc := range []struct {
		name     string
		scenario Scenario
	}{{"ER", EstimatorRemote}, {"MR", MultiplierRemote}} {
		for _, depth := range []int{1, 8} {
			label := fmt.Sprintf("small/%s/inflight=%d", sc.name, depth)
			cfg := smallConfig()
			cfg.InFlight = depth
			emit(label+"/cache=none", sc.scenario, cfg)
			cfg.Cache = NewEstimationCache()
			emit(label+"/cache=cold", sc.scenario, cfg)
			emit(label+"/cache=warm", sc.scenario, cfg)
		}
	}
	return buf.Bytes()
}

// TestGoldenFingerprints pins scenario results to
// testdata/golden/fingerprints.txt. Run
// `go test ./internal/core -run TestGoldenFingerprints -update` to
// regenerate it after a deliberate change to what a run computes.
func TestGoldenFingerprints(t *testing.T) {
	checkGolden(t, goldenFingerprints, fingerprintCorpus(t))
}

// TestCodecParityMatrix keeps the cell names of the parity matrix that
// once varied the wire codec and the shard engine. Both are gone, so
// each (scenario, depth, cache) point names four sequential repeat runs
// of one configuration; every run must reproduce its pinned row of
// testdata/golden/fingerprints.txt (all AL cells the small/AL row, the
// ER and MR cells small/<scenario>/inflight=<depth>/cache={none,cold}).
// A cached cell gets a fresh cache, so it covers the cold path; the warm
// path is TestCodecParityWarmCache.
func TestCodecParityMatrix(t *testing.T) {
	want := readGoldenPrints(t, goldenFingerprints)
	for _, sc := range []struct {
		name     string
		scenario Scenario
	}{{"AL", AllLocal}, {"ER", EstimatorRemote}, {"MR", MultiplierRemote}} {
		for _, depth := range []int{1, 8} {
			for _, cached := range []bool{false, true} {
				for _, shards := range []int{1, 4} {
					for _, workers := range []int{1, 0} {
						name := fmt.Sprintf("%s/depth=%d/cache=%v/shards=%d/workers=%d",
							sc.name, depth, cached, shards, workers)
						t.Run(name, func(t *testing.T) {
							cfg := smallConfig()
							cfg.InFlight = depth
							if cached {
								cfg.Cache = NewEstimationCache()
							}
							res, err := Run(sc.scenario, cfg)
							if err != nil {
								t.Fatal(err)
							}
							checkGoldenPrint(t, want, smallRowLabel(sc.name, depth, cached), res.Fingerprint())
						})
					}
				}
			}
		}
	}
}

// smallRowLabel names the fingerprints.txt row of a smallConfig run
// without a warm cache.
func smallRowLabel(scenario string, depth int, cached bool) string {
	if scenario == "AL" {
		return "small/AL"
	}
	cache := "none"
	if cached {
		cache = "cold"
	}
	return fmt.Sprintf("small/%s/inflight=%d/cache=%s", scenario, depth, cache)
}

// TestCodecParityWarmCache covers the warm-cache wire path: a second run
// against an already-warmed shared cache serves estimation batches off
// the cache instead of the provider, and that reshaped traffic must
// still reproduce the pinned small/ER/inflight=1/cache=warm row.
func TestCodecParityWarmCache(t *testing.T) {
	want := readGoldenPrints(t, goldenFingerprints)
	cfg := smallConfig()
	cfg.InFlight = 1
	cfg.Cache = NewEstimationCache()
	if _, err := Run(EstimatorRemote, cfg); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	res, err := Run(EstimatorRemote, cfg)
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	checkGoldenPrint(t, want, "small/ER/inflight=1/cache=warm", res.Fingerprint())
}

// TestGoldenRepeatRuns runs each small ER and MR row of
// testdata/golden/fingerprints.txt without a warm cache — pipeline depth
// {1, 8}, estimation cache {none, cold} — four times concurrently, and
// requires every run to reproduce its pinned row. Each run builds its
// own providers and, for a cold row, its own cache, so the runs share
// nothing. The sequential repeats are the TestCodecParityMatrix cells.
func TestGoldenRepeatRuns(t *testing.T) {
	want := readGoldenPrints(t, goldenFingerprints)
	for _, sc := range []struct {
		name     string
		scenario Scenario
	}{{"ER", EstimatorRemote}, {"MR", MultiplierRemote}} {
		for _, depth := range []int{1, 8} {
			for _, cached := range []bool{false, true} {
				label := smallRowLabel(sc.name, depth, cached)
				t.Run(label, func(t *testing.T) {
					prints := make([]string, 4)
					var wg sync.WaitGroup
					for i := range prints {
						wg.Add(1)
						go func() {
							defer wg.Done()
							cfg := smallConfig()
							cfg.InFlight = depth
							if cached {
								cfg.Cache = NewEstimationCache()
							}
							res, err := Run(sc.scenario, cfg)
							if err != nil {
								t.Errorf("run %d: %v", i, err)
								return
							}
							prints[i] = res.Fingerprint()
						}()
					}
					wg.Wait()
					for _, fp := range prints {
						checkGoldenPrint(t, want, label, fp)
					}
				})
			}
		}
	}
}

const goldenGenerated = "testdata/golden/generated.txt"

// generatedCorpus renders CircuitFingerprint for seeded generated
// designs: seeds {1, 2, 3} under the default GenSpec and a wider one,
// then the ~10x design of the gen-al benchmark workload (seed 1999).
// The digest covers every primary output's full observation history,
// so any change to what the kernel or the modules compute shows here.
func generatedCorpus(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	emit := func(label string, seed int64, spec GenSpec) {
		c, outs := GenerateCircuitRand(rand.New(rand.NewSource(seed)), spec)
		fp, err := CircuitFingerprint(c, outs, 0)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		fmt.Fprintf(&buf, "%s leaves=%d %s\n", label, len(c.Leaves()), fp)
	}
	specs := []GenSpec{
		{}, // defaults: 4 inputs, 3 layers, 4 ops each
		{Inputs: 6, Layers: 4, LayerOps: 6, Width: 12, Patterns: 60},
	}
	for _, seed := range []int64{1, 2, 3} {
		for si, spec := range specs {
			emit(fmt.Sprintf("seed=%d/spec=%d", seed, si), seed, spec)
		}
	}
	emit("gen-al/seed=1999", 1999, GenSpec{Inputs: 8, Layers: 5, LayerOps: 8, Width: 16, Patterns: 60})
	return buf.Bytes()
}

// TestGoldenGeneratedDesigns pins generated-design simulations to
// testdata/golden/generated.txt. Run
// `go test ./internal/core -run TestGoldenGeneratedDesigns -update` to
// regenerate it after a deliberate change to what a run computes.
func TestGoldenGeneratedDesigns(t *testing.T) {
	checkGolden(t, goldenGenerated, generatedCorpus(t))
}

const goldenTraffic = "testdata/golden/traffic.txt"

// trafficCorpus renders the RMI traffic of the paper's experiments at
// DefaultConfig: Table 2's Calls and Bytes columns for AL, MR on the
// local-host profile and ER on WAN, then every Figure 3 buffer point's
// call count and fingerprint. At pipeline depth 1 these are
// deterministic run to run, so any change to what crosses the wire
// shows here.
func trafficCorpus(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, cell := range []Table2Cell{
		{AllLocal, netsim.InProcess},
		{MultiplierRemote, netsim.Local},
		{EstimatorRemote, netsim.WAN},
	} {
		cfg := DefaultConfig()
		cfg.Profile = cell.Profile
		res, err := Run(cell.Scenario, cfg)
		if err != nil {
			t.Fatalf("table2 %s/%s: %v", cell.Scenario, cell.Profile.Name, err)
		}
		fmt.Fprintf(&buf, "table2/%s/%s calls=%d bytes=%d\n", cell.Scenario, cell.Profile.Name, res.Calls, res.Bytes)
	}
	points, err := RunFigure3(DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		fmt.Fprintf(&buf, "figure3/%d%% calls=%d %s\n", p.BufferPct, p.Calls, p.Fingerprint)
	}
	return buf.Bytes()
}

// TestGoldenTraffic pins the Table 2 traffic columns and the Figure 3
// points to testdata/golden/traffic.txt. Run
// `go test ./internal/core -run TestGoldenTraffic -update` to regenerate
// it after a deliberate change to the protocol.
func TestGoldenTraffic(t *testing.T) {
	checkGolden(t, goldenTraffic, trafficCorpus(t))
}

const goldenTable1 = "testdata/golden/table1.txt"

// table1Corpus renders every RunTable1(DefaultTable1Config()) row's
// error and cost columns at %.6g, a precision on which architectures
// that fuse multiply-adds agree. CPUPerPattern is a timing and stays
// out.
func table1Corpus(t *testing.T) []byte {
	t.Helper()
	rows, err := RunTable1(DefaultTable1Config())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, r := range rows {
		fmt.Fprintf(&buf, "%s avg_err_pct=%.6g rms_err_pct=%.6g cost_cents=%.6g\n",
			r.Estimator, r.AvgErrPct, r.RMSErrPct, r.CostPerPatternCents)
	}
	return buf.Bytes()
}

// TestGoldenTable1 pins the Table 1 error and cost columns to
// testdata/golden/table1.txt. Run
// `go test ./internal/core -run TestGoldenTable1 -update` to regenerate
// it after a deliberate change to the estimators or their calibration.
func TestGoldenTable1(t *testing.T) {
	checkGolden(t, goldenTable1, table1Corpus(t))
}

// checkGolden compares got against the committed golden file at path,
// or rewrites the file under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d differs:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
}

// readGoldenPrints loads a "label fingerprint" corpus; under -update it
// returns nil and checkGoldenPrint accepts anything.
func readGoldenPrints(t *testing.T, path string) map[string]string {
	t.Helper()
	if *update {
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	prints := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		label, fp, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		prints[label] = fp
	}
	return prints
}

func checkGoldenPrint(t *testing.T, want map[string]string, label, got string) {
	t.Helper()
	if *update {
		return
	}
	w, ok := want[label]
	if !ok {
		t.Fatalf("%s: no golden fingerprint (regenerate with -update)", label)
	}
	if got != w {
		t.Errorf("%s diverged from the recorded fingerprint\n got  %s\n want %s", label, got, w)
	}
}
