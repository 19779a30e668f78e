package lab

import (
	"strings"
	"testing"
)

func TestBinderThresholdStudy(t *testing.T) {
	spread, rep, err := BinderThresholdStudy(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports <3.6 % spread at full scale; small-scale noise gets
	// a wider band, but the knob must not be load-bearing.
	if spread > 30 {
		t.Fatalf("threshold spread %.1f%% — thresholds should not dominate", spread)
	}
	if !strings.Contains(rep, "Tiny") {
		t.Fatal("report malformed")
	}
}

func TestMonotonicConstraintStudy(t *testing.T) {
	rep, err := MonotonicConstraintStudy(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "constrained") {
		t.Fatal("report malformed")
	}
}

func TestFairnessStudy(t *testing.T) {
	rep, err := FairnessStudy(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "Jain index") {
		t.Fatal("report malformed")
	}
}

func TestGuidedTuningStudy(t *testing.T) {
	rep, err := GuidedTuningStudy(0.02)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "tuned") {
		t.Fatal("report malformed")
	}
}
