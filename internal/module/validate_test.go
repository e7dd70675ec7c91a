package module

import (
	"strings"
	"testing"

	"repro/internal/signal"
)

func issuesContain(issues []Issue, substr string) bool {
	for _, i := range issues {
		if strings.Contains(i.String(), substr) {
			return true
		}
	}
	return false
}

func TestValidateCleanDesign(t *testing.T) {
	c1 := NewWordConnector("c1", 4)
	c2 := NewWordConnector("c2", 4)
	in := NewPatternInput("in", 4, []signal.Value{word(1, 4)}, 1, c1)
	reg := NewRegister("reg", 4, c1, c2)
	out := NewPrimaryOutput("out", 4, c2)
	issues := Validate(NewCircuit("clean", in, reg, out))
	if len(hardErrors(issues)) != 0 {
		t.Errorf("clean design has errors: %v", issues)
	}
	if len(issues) != 0 {
		t.Errorf("clean design has findings: %v", issues)
	}
}

func TestValidateDanglingInput(t *testing.T) {
	reg := NewRegister("reg", 4, nil, nil)
	issues := Validate(NewCircuit("d", reg))
	if !issuesContain(issues, "never receive events") {
		t.Errorf("dangling input not reported: %v", issues)
	}
}

func TestValidateUndrivenConnector(t *testing.T) {
	c1 := NewWordConnector("c1", 4)
	reg := NewRegister("reg", 4, c1, nil) // c1 has no producer
	issues := Validate(NewCircuit("d", reg))
	if !issuesContain(issues, "no driver") {
		t.Errorf("undriven input connector not reported: %v", issues)
	}
}

func TestValidateDroppedOutput(t *testing.T) {
	c1 := NewWordConnector("c1", 4)
	c2 := NewWordConnector("c2", 4)
	in := NewPatternInput("in", 4, nil, 1, c1)
	reg := NewRegister("reg", 4, c1, c2) // c2 unread
	issues := Validate(NewCircuit("d", in, reg))
	if !issuesContain(issues, "dropped") {
		t.Errorf("dropped-output connector not reported: %v", issues)
	}
	// Warnings only — no hard errors.
	if len(hardErrors(issues)) != 0 {
		t.Errorf("warnings misclassified: %v", issues)
	}
}

func TestValidateTwoProducers(t *testing.T) {
	c1 := NewWordConnector("c1", 4)
	a := NewPatternInput("a", 4, nil, 1, c1)
	b := NewPatternInput("b", 4, nil, 1, c1) // second producer on c1
	_ = a
	_ = b
	issues := Validate(NewCircuit("d", a, b))
	errs := hardErrors(issues)
	if !issuesContain(errs, "ties two out ports") {
		t.Errorf("double producer not reported as error: %v", issues)
	}
}

func TestIssueString(t *testing.T) {
	i := Issue{Severity: "error", Module: "m", Port: "p", Msg: "boom"}
	if i.String() != "error: m.p: boom" {
		t.Errorf("String = %q", i.String())
	}
	i2 := Issue{Severity: "warning", Module: "m", Msg: "meh"}
	if !strings.HasPrefix(i2.String(), "warning: m:") {
		t.Errorf("String = %q", i2.String())
	}
}

// hardErrors filters Validate output down to hard errors.
func hardErrors(issues []Issue) []Issue {
	var out []Issue
	for _, i := range issues {
		if i.Severity == "error" {
			out = append(out, i)
		}
	}
	return out
}
