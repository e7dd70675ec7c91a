package gate

import (
	"testing"

	"repro/internal/signal"
)

func TestSequentialCounterCounts(t *testing.T) {
	seq, err := SequentialCounter(4)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := seq.NewEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	en := []signal.Bit{signal.B1}
	for cycle := 1; cycle <= 20; cycle++ {
		if _, err := ev.Step(en); err != nil {
			t.Fatal(err)
		}
		var v uint64
		for i, b := range ev.State() {
			if bv, _ := b.Bool(); bv {
				v |= 1 << uint(i)
			}
		}
		if v != uint64(cycle%16) {
			t.Fatalf("after %d cycles state = %d", cycle, v)
		}
	}
}

func TestSequentialCounterEnableGates(t *testing.T) {
	seq, _ := SequentialCounter(4)
	ev, _ := seq.NewEvaluator()
	hold := []signal.Bit{signal.B0}
	for i := 0; i < 5; i++ {
		if _, err := ev.Step(hold); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range ev.State() {
		if b != signal.B0 {
			t.Fatal("counter advanced with enable low")
		}
	}
}

func TestSequentialOutputsMirrorState(t *testing.T) {
	seq, _ := SequentialCounter(3)
	ev, _ := seq.NewEvaluator()
	if err := ev.SetState([]signal.Bit{signal.B1, signal.B0, signal.B1}); err != nil {
		t.Fatal(err)
	}
	out, err := ev.Step([]signal.Bit{signal.B0})
	if err != nil {
		t.Fatal(err)
	}
	// Outputs show the PRESENT state (before latching).
	if out[0] != signal.B1 || out[1] != signal.B0 || out[2] != signal.B1 {
		t.Errorf("outputs = %v", out)
	}
}

func TestSequentialValidation(t *testing.T) {
	core := RippleAdder(2)
	ins := core.Inputs()
	outs := core.Outputs()
	if _, err := NewSequential(core, ins[:2], outs[:1]); err == nil {
		t.Error("width mismatch accepted")
	}
	if _, err := NewSequential(core, []NetID{outs[0]}, outs[:1]); err == nil {
		t.Error("non-PI state input accepted")
	}
	if _, err := NewSequential(core, ins[:1], []NetID{ins[0]}); err == nil {
		t.Error("non-PO state output accepted")
	}
}

func TestSeqEvaluatorArityAndStateChecks(t *testing.T) {
	seq, _ := SequentialCounter(4)
	ev, _ := seq.NewEvaluator()
	if _, err := ev.Step(nil); err == nil {
		t.Error("wrong input arity accepted")
	}
	if err := ev.SetState([]signal.Bit{signal.B1}); err == nil {
		t.Error("wrong state width accepted")
	}
}
