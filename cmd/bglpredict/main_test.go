package main

import (
	"strings"
	"testing"
	"time"

	"bglpred/internal/predictor"
)

func TestParseWindows(t *testing.T) {
	got, err := parseWindows("5m, 30m,1h")
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{5 * time.Minute, 30 * time.Minute, time.Hour}
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if ws, err := parseWindows(""); err != nil || ws != nil {
		t.Fatalf("empty spec: %v, %v", ws, err)
	}
	if _, err := parseWindows("5m,banana"); err == nil {
		t.Fatal("bad duration accepted")
	}
}

func TestParsePolicy(t *testing.T) {
	cases := map[string]predictor.Policy{
		"coverage":        predictor.PolicyCoverage,
		"strict-coverage": predictor.PolicyStrictCoverage,
		"rule-priority":   predictor.PolicyRulePriority,
		"union":           predictor.PolicyUnion,
	}
	for name, want := range cases {
		got, err := parsePolicy(name)
		if err != nil || got != want {
			t.Errorf("parsePolicy(%q) = %v, %v", name, got, err)
		}
	}
	for _, name := range []string{"democracy", "max-confidence"} {
		_, err := parsePolicy(name)
		if err == nil {
			t.Fatalf("policy %q accepted", name)
		}
		if want := "(known: coverage, strict-coverage, rule-priority, union)"; !strings.Contains(err.Error(), want) {
			t.Errorf("parsePolicy(%q) error %q does not list %s", name, err, want)
		}
	}
}
