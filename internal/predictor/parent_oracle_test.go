package predictor_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"bglpred/internal/assoc"
	"bglpred/internal/bglsim"
	"bglpred/internal/catalog"
	"bglpred/internal/core"
	"bglpred/internal/ecg"
	"bglpred/internal/predictor"
	"bglpred/internal/preprocess"
	"bglpred/internal/raslog"
)

// The references below are the build before one training per base and
// one replay loop, verbatim up to package qualifiers: core.Pipeline's
// Train, which fitted a shadow statistical and rule predictor beside
// the meta-learner's own pair, and predictor.PredictBase with its
// renewWarning, the offline replay precursor bases ran beside the
// Stepper. Names resolve through core's table of base predictors,
// which replaced the runtime registry they were written against. The
// tests hold the current tree to them.

type referencePipeline struct {
	cfg core.Config
}

// newStatistical builds a configured statistical predictor.
func (p *referencePipeline) newStatistical() *predictor.Statistical {
	return &predictor.Statistical{
		MinLead:        p.cfg.StatMinLead,
		MaxWindow:      p.cfg.StatMaxWindow,
		MinProbability: p.cfg.StatMinProbability,
		ForceTriggers:  p.cfg.ForceTriggers,
	}
}

// newRule builds a configured rule predictor.
func (p *referencePipeline) newRule() *predictor.Rule {
	return &predictor.Rule{Config: p.cfg.Rule}
}

// newMeta builds a configured meta-learner over the selected base
// predictors. Call validatePredictors first: unknown names here mean
// the selection was never validated, and panicking beats silently
// serving a smaller ensemble than configured.
func (p *referencePipeline) newMeta() *predictor.Meta {
	if len(p.cfg.Predictors) == 0 {
		return &predictor.Meta{
			Stat:   p.newStatistical(),
			Rule:   p.newRule(),
			Policy: p.cfg.Policy,
		}
	}
	bases := make([]predictor.Base, 0, len(p.cfg.Predictors))
	for _, name := range p.cfg.Predictors {
		b, err := core.NewBase(name)
		if err != nil {
			panic(fmt.Sprintf("core: %v (validate Config.Predictors before training)", err))
		}
		switch b.Name() {
		case predictor.SourceStatistical:
			b = p.newStatistical()
		case predictor.SourceRule:
			b = p.newRule()
		}
		bases = append(bases, b)
	}
	m := predictor.NewMetaBases(bases...)
	m.Policy = p.cfg.Policy
	return m
}

// validatePredictors fails fast on an unknown or duplicate
// Config.Predictors selection.
func (p *referencePipeline) validatePredictors() error {
	if len(p.cfg.Predictors) == 0 {
		return nil
	}
	_, err := core.Resolve(p.cfg.Predictors)
	return err
}

// referenceTrained bundles the three predictors fitted on one training stream.
type referenceTrained struct {
	Statistical *predictor.Statistical
	Rule        *predictor.Rule
	Meta        *predictor.Meta
}

// Train fits all three predictors on a unique-event stream. The
// meta-learner owns its own base instances, as in the paper's
// protocol (its bases train on the same learning set).
func (p *referencePipeline) Train(events []preprocess.Event) (*referenceTrained, error) {
	if err := p.validatePredictors(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	t := &referenceTrained{
		Statistical: p.newStatistical(),
		Rule:        p.newRule(),
		Meta:        p.newMeta(),
	}
	if err := t.Statistical.Train(events); err != nil {
		return nil, fmt.Errorf("core: statistical: %w", err)
	}
	if err := t.Rule.Train(events); err != nil {
		return nil, fmt.Errorf("core: rule: %w", err)
	}
	if err := t.Meta.Train(events); err != nil {
		return nil, fmt.Errorf("core: meta: %w", err)
	}
	return t, nil
}

// referencePredictBase replays a test stream through a Base's Observe exactly
// as a Stepper would — sliding observation window, standing-alarm
// renewal — and returns the warnings raised. It is the offline
// Predict shared by every precursor-kind base predictor, so the
// evaluated behaviour is the deployed behaviour.
func referencePredictBase(b predictor.Base, events []preprocess.Event, window time.Duration) []predictor.Warning {
	var out []predictor.Warning
	var deque []predictor.StepObservation
	for i := range events {
		e := &events[i]
		cutoff := e.Time.Add(-window)
		k := 0
		for k < len(deque) && deque[k].At.Before(cutoff) {
			k++
		}
		deque = deque[k:]
		if !e.Sub.IsFatal() {
			deque = append(deque, predictor.StepObservation{At: e.Time, Sub: e.Sub.ID})
		}
		c, ok := b.Observe(e, deque, window)
		if !ok {
			continue
		}
		renewWarning(&out, c.Warning)
	}
	return out
}

// renewWarning appends w, or — when w overlaps the last standing
// warning — renews that warning in place: coverage extends to w.End
// and the higher confidence (with its detail) wins.
func renewWarning(out *[]predictor.Warning, w predictor.Warning) {
	if n := len(*out); n > 0 {
		last := &(*out)[n-1]
		if !w.Start.After(last.End) {
			if w.End.After(last.End) {
				last.End = w.End
			}
			if w.Confidence > last.Confidence {
				last.Confidence = w.Confidence
				last.Detail = w.Detail
			}
			return
		}
	}
	*out = append(*out, w)
}

// seedLog returns the Phase 1 events of a small ANL log generated
// under seed.
func seedLog(t *testing.T, seed uint64) []preprocess.Event {
	t.Helper()
	p := bglsim.ANLProfile().Scaled(0.05)
	p.Seed = seed
	gen, err := bglsim.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return preprocess.Run(gen.Events, preprocess.Options{}).Events
}

// TestTrainMatchesParent: training each base once yields the
// meta-learner the shadow-pair pipeline did, and the typed handles are
// the meta's own bases — nil where unselected, equal to the shadow
// predictors where selected.
func TestTrainMatchesParent(t *testing.T) {
	selections := [][]string{nil, {"statistical", "rule", "ecg"}, {"rule"}, {"statistical", "ecg"}}
	for seed := uint64(1); seed <= 3; seed++ {
		events := seedLog(t, seed)
		for _, sel := range selections {
			t.Run(fmt.Sprintf("seed %d, %v", seed, sel), func(t *testing.T) {
				cfg := core.Config{Predictors: sel}
				got, err := core.New(cfg).Train(events)
				if err != nil {
					t.Fatal(err)
				}
				want, err := (&referencePipeline{cfg: cfg}).Train(events)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Meta, want.Meta) {
					t.Fatal("meta-learner differs from the reference's")
				}
				if got.Statistical != got.Meta.Stat || got.Rule != got.Meta.Rule {
					t.Fatal("Trained holds bases beside the meta's own")
				}
				if got.Meta.Stat != nil && !reflect.DeepEqual(got.Statistical, want.Statistical) {
					t.Fatal("statistical predictor differs from the reference's shadow")
				}
				if got.Meta.Rule != nil {
					if want.Rule.Rules().Len() == 0 {
						t.Fatal("reference mined no rules; the comparison is vacuous")
					}
					if !reflect.DeepEqual(got.Rule, want.Rule) {
						t.Fatal("rule predictor differs from the reference's shadow")
					}
				}
			})
		}
	}
}

// TestOneBaseStepperMatchesPredictBase: a precursor base's Predict,
// now a one-base meta-learner's replay, raises exactly the warnings
// the reference replay loop did.
func TestOneBaseStepperMatchesPredictBase(t *testing.T) {
	events := seedLog(t, 1)
	cut := len(events) * 3 / 4
	train, tail := events[:cut], events[cut:]
	rule := predictor.NewRule()
	graph := ecg.New(ecg.Config{})
	for _, b := range []predictor.Base{rule, graph} {
		if err := b.Train(train); err != nil {
			t.Fatal(err)
		}
		for _, window := range []time.Duration{5 * time.Minute, 30 * time.Minute, time.Hour} {
			want := referencePredictBase(b, tail, window)
			if len(want) == 0 {
				t.Fatalf("%s at %v: the reference raised nothing; the comparison is vacuous", b.Name(), window)
			}
			if got := b.Predict(tail, window); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s at %v: %d warnings, the reference raised %d", b.Name(), window, len(got), len(want))
			}
		}
	}
}

// handRules is a small hand-set rule set over a few non-fatal
// precursors, in BestMatch order.
func handRules() *predictor.Rule {
	id := func(name string) int { return catalog.MustByName(name).ID }
	r := predictor.NewRule()
	r.SetTrained(assoc.NewRuleSet([]assoc.Rule{
		{Body: assoc.NewItemset(id("coredumpCreated"), id("appLaunchWarning")), Heads: assoc.NewItemset(id("loadProgramFailure")), Confidence: 0.9},
		{Body: assoc.NewItemset(id("ciodStreamWarning")), Heads: assoc.NewItemset(id("kernelPanicFailure")), Confidence: 0.6},
		{Body: assoc.NewItemset(id("coredumpCreated")), Heads: assoc.NewItemset(id("loadProgramFailure")), Confidence: 0.4},
	}), 15*time.Minute)
	return r
}

// fuzzAlphabet is the subcategories a fuzzed stream draws from: the
// rule bodies' precursors, a non-fatal bystander, and two fatals.
var fuzzAlphabet = []string{
	"coredumpCreated", "appLaunchWarning", "ciodStreamWarning",
	"machineCheckError", "loadProgramFailure", "kernelPanicFailure",
}

// FuzzOneBaseStepperMatchesPredictBase drives handRules through the
// one-base meta and the reference replay on arbitrary streams: each
// byte pair is a gap before the event (in 20 s steps, up to ~85 min)
// and its subcategory.
func FuzzOneBaseStepperMatchesPredictBase(f *testing.F) {
	f.Add([]byte{0, 0, 10, 1, 5, 4, 200, 2, 3, 5, 1, 0, 1, 4}, uint8(1))
	f.Add([]byte{0, 2, 60, 2, 60, 2, 60, 5, 255, 0, 0, 1, 0, 4}, uint8(0))
	f.Add([]byte{0, 0, 0, 1, 0, 3, 90, 0, 90, 1, 90, 4}, uint8(2))
	rule := handRules()
	windows := []time.Duration{5 * time.Minute, 30 * time.Minute, time.Hour}
	f.Fuzz(func(t *testing.T, data []byte, w uint8) {
		var events []preprocess.Event
		at := time.Date(2005, 6, 1, 0, 0, 0, 0, time.UTC)
		for i := 0; i+1 < len(data); i += 2 {
			at = at.Add(time.Duration(data[i]) * 20 * time.Second)
			sub := catalog.MustByName(fuzzAlphabet[int(data[i+1])%len(fuzzAlphabet)])
			events = append(events, preprocess.Event{Event: raslog.Event{Time: at}, Sub: sub, Count: 1, Locations: 1})
		}
		window := windows[int(w)%len(windows)]
		if got, want := rule.Predict(events, window), referencePredictBase(rule, events, window); !reflect.DeepEqual(got, want) {
			t.Fatalf("window %v: one-base meta raised %+v\nreference raised %+v", window, got, want)
		}
	})
}
