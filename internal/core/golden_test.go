package core

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/netsim"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/ from the current code")

const goldenFingerprints = "testdata/golden/fingerprints.txt"

// fingerprintCorpus renders Result.Fingerprint for a fixed set of runs:
// the three local-host Table 2 rows at DefaultConfig, then ER and MR at
// smallConfig across pipeline depth {1, 8} and estimation cache {none,
// cold, warm} — the knobs that reshape wire traffic. A warm run reuses
// the cache its cold twin just filled. Any change to the wire protocol
// or the remote estimation path must leave this text unchanged.
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

const goldenCodecParity = "testdata/golden/codecparity.txt"

// TestCodecParityMatrix is the bit-identical guarantee of wire format v1:
// for every Table 2 scenario and across the transport knobs that change
// wire traffic shape — pipeline depth and estimation cache — a run must
// produce exactly the fingerprint recorded in
// testdata/golden/codecparity.txt. That corpus was recorded under the
// reflective gob codec while both codecs were still proven identical
// cell by cell, so it stays the oracle for what the binary codec may
// never change: what the simulation computes.
//
// The corpus also recorded a shard count and a shard-worker count per
// cell, from when a design could be split across several schedulers.
// Every run now uses one scheduler, so the four shards/workers cells of
// a (scenario, depth, cache) point are four independent runs of the same
// configuration. They keep their recorded names and hashes, and
// together they also check that repeated runs agree.
// Run `go test ./internal/core -run TestCodecParity -update` to
// regenerate it after a deliberate change to what a run computes.
func TestCodecParityMatrix(t *testing.T) {
	want := readGoldenPrints(t, goldenCodecParity)
	var got bytes.Buffer
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
								// A fresh cache per cell: the matrix covers the
								// cold-path traffic; the warm path is
								// TestCodecParityWarmCache.
								cfg.Cache = NewEstimationCache()
							}
							res, err := Run(sc.scenario, cfg)
							if err != nil {
								t.Fatal(err)
							}
							fmt.Fprintf(&got, "%s %s\n", name, res.Fingerprint())
							checkGoldenPrint(t, want, name, res.Fingerprint())
						})
					}
				}
			}
		}
	}
	warm := warmCacheFingerprint(t)
	fmt.Fprintf(&got, "%s %s\n", warmCacheLabel, warm)
	if *update {
		if err := os.WriteFile(goldenCodecParity, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

const warmCacheLabel = "ER/warm"

// TestCodecParityWarmCache extends the parity corpus to the warm-cache
// wire path: a second run against an already-warmed shared cache serves
// estimation batches off the cache instead of the provider, and that
// reshaped traffic must still reproduce its recorded fingerprint.
func TestCodecParityWarmCache(t *testing.T) {
	want := readGoldenPrints(t, goldenCodecParity)
	checkGoldenPrint(t, want, warmCacheLabel, warmCacheFingerprint(t))
}

func warmCacheFingerprint(t *testing.T) string {
	t.Helper()
	cfg := smallConfig()
	cfg.Cache = NewEstimationCache()
	if _, err := Run(EstimatorRemote, cfg); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	res, err := Run(EstimatorRemote, cfg)
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	return res.Fingerprint()
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
