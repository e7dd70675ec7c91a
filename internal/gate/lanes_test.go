package gate

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/signal"
)

// checkEvalBatch evaluates patterns in batches of the given size and
// compares every lane's outputs with scalar Eval.
func checkEvalBatch(t *testing.T, nl *Netlist, patterns [][]signal.Bit, size int) {
	t.Helper()
	le, err := nl.NewLaneEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := nl.NewEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	got := make([]signal.Bit, len(nl.Outputs()))
	for start := 0; start < len(patterns); start += size {
		batch := patterns[start:min(start+size, len(patterns))]
		if err := le.EvalBatch(batch); err != nil {
			t.Fatal(err)
		}
		for l, p := range batch {
			want, err := ref.Eval(p)
			if err != nil {
				t.Fatal(err)
			}
			le.ReadOutputs(got, l)
			if !signal.WordFromBits(got).Equal(signal.WordFromBits(want)) {
				t.Fatalf("%s inputs %s (lane %d of %d): batch %s, scalar %s",
					nl.Name, signal.WordFromBits(p), l, len(batch), signal.WordFromBits(got), signal.WordFromBits(want))
			}
		}
	}
}

// allLevels returns every four-valued assignment of n inputs.
func allLevels(n int) [][]signal.Bit {
	out := make([][]signal.Bit, 1<<(2*n))
	for c := range out {
		p := make([]signal.Bit, n)
		for i := range p {
			p[i] = signal.Bit(c >> (2 * i) & 3)
		}
		out[c] = p
	}
	return out
}

// TestEvalBatchMatchesScalar checks every lane of the lane kernel
// against Eval: every gate kind at two to four inputs, plus an
// undriven output and a primary input read straight back, over every
// four-valued input; then random and library netlists over random
// four-valued streams at several batch sizes.
func TestEvalBatchMatchesScalar(t *testing.T) {
	nl := NewNetlist("kinds")
	in := []NetID{nl.AddInput("a"), nl.AddInput("b"), nl.AddInput("c"), nl.AddInput("d")}
	for k := Buf; k <= Xnor; k++ {
		if k == Buf || k == Not {
			nl.MarkOutput(nl.AddGate(k, k.String(), in[2]))
			continue
		}
		for w := 2; w <= 4; w++ {
			nl.MarkOutput(nl.AddGate(k, k.String()+strings.Repeat("'", w), in[:w]...))
		}
	}
	nl.MarkOutput(nl.AddNet("dangling"))
	nl.MarkOutput(in[3])
	for _, size := range []int{1, 5, 63, 64} {
		checkEvalBatch(t, nl, allLevels(4), size)
	}
	r := rand.New(rand.NewSource(5))
	for _, nl := range []*Netlist{RandomCombinational(6, 150, 6, 9), ArrayMultiplier(4), C17()} {
		patterns := make([][]signal.Bit, 200)
		for i := range patterns {
			p := make([]signal.Bit, len(nl.Inputs()))
			for j := range p {
				p[j] = signal.Bit(r.Intn(4))
			}
			patterns[i] = p
		}
		for _, size := range []int{1, 7, 64} {
			checkEvalBatch(t, nl, patterns, size)
		}
	}
}

func TestEvalBatchRejectsBadBatches(t *testing.T) {
	nl := C17()
	le, err := nl.NewLaneEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	if err := le.EvalBatch(nil); err == nil {
		t.Error("empty batch accepted")
	}
	long := make([][]signal.Bit, Lanes+1)
	for i := range long {
		long[i] = nl.InputWord(0)
	}
	if err := le.EvalBatch(long); err == nil {
		t.Error("batch over Lanes accepted")
	}
	if err := le.EvalBatch([][]signal.Bit{nl.InputWord(0), {signal.B0}}); err == nil {
		t.Error("short pattern accepted")
	}
}

// TestEvalBatchAllocationFree: a full batch allocates nothing.
func TestEvalBatchAllocationFree(t *testing.T) {
	nl := ArrayMultiplier(8)
	le, err := nl.NewLaneEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	batch := make([][]signal.Bit, Lanes)
	for i := range batch {
		batch[i] = nl.InputWord(uint64(i * 977))
	}
	out := make([]signal.Bit, len(nl.Outputs()))
	if n := testing.AllocsPerRun(20, func() {
		_ = le.EvalBatch(batch)
		le.ReadOutputs(out, Lanes-1)
	}); n != 0 {
		t.Errorf("%v allocs per batch, want 0", n)
	}
}
