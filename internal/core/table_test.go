package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"bglpred/internal/ecg"
	"bglpred/internal/predictor"
)

// TestNewBaseSpellings: every spelling the table accepts builds a
// fresh, untrained base of the right kind under its canonical name.
func TestNewBaseSpellings(t *testing.T) {
	cases := []struct {
		name, want string
		kind       predictor.Kind
	}{
		{"statistical", predictor.SourceStatistical, predictor.KindPointOfFailure},
		{"stat", predictor.SourceStatistical, predictor.KindPointOfFailure},
		{" stat\t", predictor.SourceStatistical, predictor.KindPointOfFailure},
		{"rule", predictor.SourceRule, predictor.KindPrecursor},
		{" rule ", predictor.SourceRule, predictor.KindPrecursor},
		{"ecg", ecg.Source, predictor.KindPrecursor},
		{"\necg ", ecg.Source, predictor.KindPrecursor},
	}
	for _, c := range cases {
		b, err := NewBase(c.name)
		if err != nil {
			t.Fatalf("NewBase(%q): %v", c.name, err)
		}
		if b.Name() != c.want || b.Kind() != c.kind {
			t.Errorf("NewBase(%q) built %q kind %v, want %q kind %v", c.name, b.Name(), b.Kind(), c.want, c.kind)
		}
		if _, err := b.State(); err == nil {
			t.Errorf("NewBase(%q) built a trained base", c.name)
		}
	}
	got, err := Resolve([]string{" ecg", "stat", "rule "})
	if want := []string{ecg.Source, predictor.SourceStatistical, predictor.SourceRule}; err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("Resolve = %v, %v; want %v", got, err, want)
	}
}

// TestSelectionRefused: an unknown, a duplicate and an empty selection
// are refused, by Resolve and by the pipeline, with the known names.
func TestSelectionRefused(t *testing.T) {
	const known = "(known: ecg, rule, stat, statistical)"
	cases := map[string][]string{
		"unknown":   {"rule", "nosuch"},
		"duplicate": {"stat", "statistical"},
		"empty":     {},
		"blank":     {" "},
	}
	events := smallLog(t)[:200]
	for label, sel := range cases {
		if _, err := Resolve(sel); err == nil || !strings.Contains(err.Error(), known) {
			t.Errorf("%s: Resolve(%q) = %v, want an error listing %s", label, sel, err, known)
		}
		if len(sel) == 0 {
			continue // an empty Config.Predictors selects the classic pair
		}
		p := New(Config{Predictors: sel})
		if _, err := p.Train(events); err == nil || !strings.Contains(err.Error(), known) {
			t.Errorf("%s: Train with %q = %v, want an error listing %s", label, sel, err, known)
		}
		if _, err := p.Evaluate(events, []time.Duration{time.Hour}); err == nil {
			t.Errorf("%s: Evaluate with %q succeeded", label, sel)
		}
	}
	if _, err := NewBase("nosuch"); err == nil || !strings.Contains(err.Error(), `"nosuch" `+known) {
		t.Errorf("NewBase(nosuch) = %v, want an error naming it and listing %s", err, known)
	}
}
