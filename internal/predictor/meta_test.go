package predictor

import (
	"testing"
	"time"

	"bglpred/internal/catalog"
	"bglpred/internal/preprocess"
)

// mixedTraining interleaves a rule-predictable chain family with a
// statistically predictable network cascade family.
func mixedTraining(n int) []preprocess.Event {
	var out []preprocess.Event
	at := t0
	for i := 0; i < n; i++ {
		// Chain episode: coredump -> loadProgramFailure.
		out = append(out, ue(at, "coredumpCreated"))
		out = append(out, ue(at.Add(4*time.Minute), "loadProgramFailure"))
		// Cascade episode: three network fatals 10 minutes apart.
		base := at.Add(2 * time.Hour)
		out = append(out, ue(base, "torusFailure"))
		out = append(out, ue(base.Add(10*time.Minute), "rtsFailure"))
		out = append(out, ue(base.Add(20*time.Minute), "treeNetworkFailure"))
		at = at.Add(6 * time.Hour)
	}
	return out
}

func trainedMeta(t *testing.T, policy Policy) *Meta {
	t.Helper()
	m := NewMeta()
	m.Policy = policy
	m.Rule.Config.RuleGenWindow = 15 * time.Minute
	m.Rule.Config.MinSupport = 0.05
	m.Rule.Config.MaxBodyItemShare = 1
	m.Rule.Config.MinLift = 1e-9
	m.Stat.MinCount = 5
	if err := m.Train(mixedTraining(40)); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMetaTrainsBothBases(t *testing.T) {
	m := trainedMeta(t, PolicyCoverage)
	if m.Rule.Rules().Len() == 0 {
		t.Error("rule base not trained")
	}
	if _, ok := m.Stat.Triggers()[catalog.Network]; !ok {
		t.Errorf("statistical base missed Network trigger: %v", m.Stat.Triggers())
	}
}

func TestMetaCombinesBothSources(t *testing.T) {
	m := trainedMeta(t, PolicyCoverage)
	test := stream(
		0*time.Minute, "coredumpCreated", // rule evidence
		4*time.Minute, "loadProgramFailure",
		300*time.Minute, "torusFailure", // statistical evidence
		310*time.Minute, "rtsFailure",
	)
	w := m.Predict(test, 30*time.Minute)
	var sources = map[string]int{}
	for _, x := range w {
		sources[x.Source]++
	}
	if sources[SourceRule] == 0 {
		t.Errorf("no rule-sourced warnings: %v", w)
	}
	if sources[SourceStatistical] == 0 {
		t.Errorf("no statistical-sourced warnings: %v", w)
	}
}

func TestMetaRenewsAlarmsAcrossCascade(t *testing.T) {
	m := trainedMeta(t, PolicyCoverage)
	// A 3-member cascade within one window: the engine should keep one
	// standing alarm, renewed by each member.
	test := stream(
		0*time.Minute, "torusFailure",
		10*time.Minute, "rtsFailure",
		20*time.Minute, "treeNetworkFailure",
	)
	w := m.Predict(test, 30*time.Minute)
	if len(w) != 1 {
		t.Fatalf("got %d alarms, want 1 renewed: %v", len(w), w)
	}
	if !w[0].Covers(t0.Add(20 * time.Minute)) {
		t.Error("alarm lost coverage of the last member")
	}
}

func TestMetaStrictCoverageSuppressesStatWithNoise(t *testing.T) {
	m := trainedMeta(t, PolicyStrictCoverage)
	// Non-fatal noise sits in the window, so the literal reading of
	// §3.3 case (2) refuses the statistical path.
	test := stream(
		0*time.Minute, "scrubCycleInfo",
		5*time.Minute, "torusFailure",
	)
	if w := m.Predict(test, 30*time.Minute); len(w) != 0 {
		t.Fatalf("strict coverage issued %v", w)
	}
	// With an empty window the statistical path fires.
	test = stream(0*time.Minute, "torusFailure")
	if w := m.Predict(test, 30*time.Minute); len(w) != 1 {
		t.Fatalf("strict coverage on clean window issued %d warnings", len(w))
	}
}

func TestMetaRulePrioritySuppressesStat(t *testing.T) {
	m := trainedMeta(t, PolicyRulePriority)
	test := stream(
		0*time.Minute, "coredumpCreated", // raises rule alarm
		5*time.Minute, "torusFailure", // stat candidate, must be suppressed
	)
	w := m.Predict(test, 30*time.Minute)
	if len(w) != 1 || w[0].Source != SourceRule {
		t.Fatalf("rule-priority warnings = %v", w)
	}
}

func TestMetaUnionIssuesEverything(t *testing.T) {
	union := trainedMeta(t, PolicyUnion)
	coverage := trainedMeta(t, PolicyCoverage)
	test := mixedTraining(10)
	wu := union.Predict(test, 30*time.Minute)
	wc := coverage.Predict(test, 30*time.Minute)
	if len(wu) < len(wc) {
		t.Fatalf("union issued fewer warnings (%d) than coverage (%d)", len(wu), len(wc))
	}
}

func TestMetaCoverageHigherConfidenceWins(t *testing.T) {
	m := trainedMeta(t, PolicyCoverage)
	// Rule alarm stands with the chain's high mined confidence; the
	// statistical candidate (lower confidence) must be suppressed.
	ruleConf := m.Rule.Rules().Rules[0].Confidence
	statConf := m.Stat.Triggers()[catalog.Network]
	if statConf >= ruleConf {
		t.Skipf("fixture assumption violated: stat %v >= rule %v", statConf, ruleConf)
	}
	test := stream(
		0*time.Minute, "coredumpCreated",
		5*time.Minute, "torusFailure",
	)
	w := m.Predict(test, 30*time.Minute)
	if len(w) != 1 || w[0].Source != SourceRule {
		t.Fatalf("coverage warnings = %v, want single rule alarm", w)
	}
}

func TestMetaPredictUntrainedRuleBase(t *testing.T) {
	m := NewMeta()
	m.Stat.MinCount = 5
	if err := m.Stat.Train(mixedTraining(20)); err != nil {
		t.Fatal(err)
	}
	// Rule base untrained: meta must still serve statistical warnings.
	test := stream(0*time.Minute, "torusFailure")
	w := m.Predict(test, 30*time.Minute)
	if len(w) != 1 || w[0].Source != SourceStatistical {
		t.Fatalf("warnings = %v", w)
	}
}

func TestMetaName(t *testing.T) {
	if NewMeta().Name() != "meta" {
		t.Error("bad name")
	}
}

func TestPolicyString(t *testing.T) {
	cases := map[Policy]string{
		PolicyCoverage:       "coverage",
		PolicyStrictCoverage: "strict-coverage",
		PolicyRulePriority:   "rule-priority",
		PolicyUnion:          "union",
		Policy(2):            "Policy(2)",
		Policy(99):           "Policy(99)",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("Policy(%d).String() = %q, want %q", int(p), got, want)
		}
	}
}

// TestPolicyNumbers pins the policies' numbers: model artifacts store
// a policy as its int, so renumbering one would load every saved model
// under another policy. 2 was max-confidence and stays unused.
func TestPolicyNumbers(t *testing.T) {
	want := map[Policy]int{PolicyCoverage: 0, PolicyStrictCoverage: 1, PolicyRulePriority: 3, PolicyUnion: 4}
	if got := Policies(); len(got) != len(want) {
		t.Fatalf("Policies() = %v, want the %d policies", got, len(want))
	}
	for i, p := range Policies() {
		if n, ok := want[p]; !ok || int(p) != n {
			t.Errorf("Policies()[%d] = %v (%d), want one of %v", i, p, int(p), want)
		}
		if i > 0 && Policies()[i-1] >= p {
			t.Errorf("Policies() = %v is not in numeric order", Policies())
		}
	}
}

func TestMetaTrainWithoutBasesFails(t *testing.T) {
	m := &Meta{}
	if err := m.Train(mixedTraining(5)); err == nil {
		t.Fatal("a meta-learner with no base predictors trained")
	}
	if m.Stat != nil || m.Rule != nil {
		t.Fatal("Train wired base predictors the meta was not built with")
	}
}
