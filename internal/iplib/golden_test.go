package iplib

import (
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/rmi"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/ from the current code")

const goldenEnvelopes = "testdata/golden/envelopes.txt"

// TestGoldenEnvelopePayloads pins the payload bytes of every envelope in
// binaryPairs to testdata/golden/envelopes.txt (one "name hex" line per
// case), so the v1 payload format cannot drift unnoticed, and decodes
// each pinned payload back to its envelope. Run
// `go test ./internal/iplib -run TestGoldenEnvelopePayloads -update` to
// regenerate the file after a deliberate format change.
func TestGoldenEnvelopePayloads(t *testing.T) {
	pairs := binaryPairs()
	got := make([]string, len(pairs))
	for i, p := range pairs {
		raw, err := rmi.EncodePayload(p.in)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		got[i] = p.name + " " + hex.EncodeToString(raw)
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenEnvelopes), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenEnvelopes, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenEnvelopes)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s: %d lines, want one per envelope (%d)", goldenEnvelopes, len(want), len(got))
	}
	for i, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			if got[i] != want[i] {
				t.Fatalf("%s line %d differs:\n got  %s\n want %s", goldenEnvelopes, i+1, got[i], want[i])
			}
			raw, err := hex.DecodeString(strings.TrimPrefix(want[i], p.name+" "))
			if err != nil {
				t.Fatal(err)
			}
			out := reflect.New(reflect.TypeOf(p.in))
			if err := rmi.Decode(raw, out.Interface()); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(out.Elem().Interface(), p.in) {
				t.Errorf("golden payload decodes to %#v, want %#v", out.Elem().Interface(), p.in)
			}
		})
	}
}
