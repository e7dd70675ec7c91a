package wire

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/signal"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/ from the current code")

const goldenWords = "testdata/golden/words.txt"

// goldenWidths covers the empty word, sub-byte and byte-boundary packing
// (3, 4, 5) and both sides of the 32- and 64-bit boundaries.
var goldenWidths = []int{0, 1, 3, 4, 5, 31, 32, 63, 64}

// wordsPerWidth seeded words are drawn per width: every third is fully
// known (so Uint64 reports a value), the rest mix in X and Z.
const wordsPerWidth = 9

// seededWord draws a four-valued word of the given width. known forces
// a word of only 0 and 1.
func seededWord(r *rand.Rand, width int, known bool) signal.Word {
	const levels = "01XZ"
	s := make([]byte, width)
	for i := range s {
		if known || r.Intn(4) != 0 {
			s[i] = levels[r.Intn(2)]
		} else {
			s[i] = levels[2+r.Intn(2)]
		}
	}
	w, err := signal.ParseWord(string(s))
	if err != nil {
		panic(err)
	}
	return w
}

// wordCorpus renders, for each seeded word: its MSB-first spelling, its
// AppendWord bytes, Uint64 and Known, the toggle count against the next
// word of the same width, one Slice, and the Concat of the word's high
// part with its neighbour's low part (a width-preserving splice).
func wordCorpus(t *testing.T) []byte {
	t.Helper()
	r := rand.New(rand.NewSource(20))
	var buf bytes.Buffer
	for _, width := range goldenWidths {
		words := make([]signal.Word, wordsPerWidth+1)
		for i := range words {
			words[i] = seededWord(r, width, i%3 == 0)
		}
		for i, w := range words[:wordsPerWidth] {
			nb := words[i+1]
			lo := r.Intn(width + 1)
			hi := lo + r.Intn(width-lo+1)
			k := r.Intn(width + 1)
			v, ok := w.Uint64()
			enc := AppendWord(nil, w)
			dec, rest, err := Word(enc)
			if err != nil || len(rest) != 0 || !dec.Equal(w) {
				t.Fatalf("width %d word %d: %s decodes to %v, rest %d, err %v", width, i, w, dec, len(rest), err)
			}
			fmt.Fprintf(&buf, "w%d.%d %q hex=%s u64=%d/%t known=%t toggle=%d slice[%d:%d]=%q concat@%d=%q\n",
				width, i, w.String(), hex.EncodeToString(enc), v, ok, w.Known(), w.ToggleCount(nb),
				lo, hi, w.Slice(lo, hi).String(), k, w.Slice(k, width).Concat(nb.Slice(0, k)).String())
		}
	}
	return buf.Bytes()
}

// TestGoldenWords pins the semantics and wire bytes of four-valued words
// to testdata/golden/words.txt, so a change of representation cannot
// alter a spelling, a conversion, a toggle count or one encoded byte
// unnoticed. Regenerate with
// `go test ./internal/wire -run TestGoldenWords -update` only after a
// deliberate change to word semantics or wire format v1.
func TestGoldenWords(t *testing.T) {
	got := wordCorpus(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenWords), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenWords, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenWords)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d differs:\n got  %s\n want %s", goldenWords, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("%s: got %d lines, want %d", goldenWords, len(gl), len(wl))
	}
}
