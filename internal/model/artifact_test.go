package model

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"bglpred/internal/assoc"
	"bglpred/internal/bglsim"
	"bglpred/internal/canon"
	"bglpred/internal/catalog"
	"bglpred/internal/core"
	"bglpred/internal/ecg"
	"bglpred/internal/predictor"
	"bglpred/internal/preprocess"
	"bglpred/internal/stats"
)

// goldenV1 is a fixed, hand-built version-1 payload: the classic
// pair's tables and no sections. Its saved form is committed as
// testdata/golden_v1.bglm.
func goldenV1() *legacyArtifact {
	return &legacyArtifact{
		Provenance: Provenance{
			TrainedAt: time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC),
			Source:    "golden fixture",
			Records:   1000,
			Unique:    100,
			LogStart:  time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC),
			LogEnd:    time.Date(2026, 1, 31, 0, 0, 0, 0, time.UTC),
			Params: MiningParams{
				MinSupport:    0.01,
				MinConfidence: 0.2,
				MaxBodyLen:    4,
				RuleGenWindow: 15 * time.Minute,
				Miner:         "fpgrowth",
			},
		},
		Policy: int(predictor.PolicyCoverage),
		Stat: legacyStat{
			MinLead:        5 * time.Minute,
			MaxWindow:      time.Hour,
			MinProbability: 0.4,
			MinCount:       20,
			FollowMinLead:  5 * time.Minute,
			FollowWindow:   time.Hour,
			Total:          map[int]int{1: 40, 5: 60},
			Followed:       map[int]int{1: 25, 5: 30},
			Triggers:       map[int]float64{1: 0.625, 5: 0.5},
		},
		Rule: legacyRule{
			Window: 15 * time.Minute,
			Rules: []assoc.Rule{
				{
					Body: assoc.NewItemset(3, 7), Heads: assoc.NewItemset(42),
					BodyCount: 19, JointCount: 18, Support: 0.018, Confidence: 0.947368,
				},
				{
					Body: assoc.NewItemset(9), Heads: assoc.NewItemset(42, 55),
					BodyCount: 30, JointCount: 21, Support: 0.021, Confidence: 0.7,
				},
			},
		},
	}
}

// goldenPair builds the classic pair straight from goldenV1's tables,
// the way version-1 files were rebuilt before they converted to
// sections on load: the oracle the conversion must match.
func goldenPair() *predictor.Meta {
	a := goldenV1()
	stat := &predictor.Statistical{
		MinLead:        a.Stat.MinLead,
		MaxWindow:      a.Stat.MaxWindow,
		MinProbability: a.Stat.MinProbability,
		MinCount:       a.Stat.MinCount,
	}
	triggers := make(map[catalog.Main]float64, len(a.Stat.Triggers))
	for main, conf := range a.Stat.Triggers {
		triggers[catalog.Main(main)] = conf
	}
	stat.SetTrained(&stats.FollowStats{
		MinLead: a.Stat.FollowMinLead, Window: a.Stat.FollowWindow,
		Total: a.Stat.Total, Followed: a.Stat.Followed,
	}, triggers)
	rule := predictor.NewRule()
	rule.SetTrained(assoc.NewRuleSet(a.Rule.Rules), a.Rule.Window)
	return &predictor.Meta{Stat: stat, Rule: rule, Policy: predictor.Policy(a.Policy)}
}

// goldenArtifact is goldenPair packaged in the current format under
// goldenV1's provenance.
func goldenArtifact() *Artifact {
	a, err := FromMeta(goldenPair(), goldenV1().Provenance)
	if err != nil {
		panic(err)
	}
	return a
}

// legacyBytes frames a gob payload as the given artifact version, the
// way versions 1 and 2 were written.
func legacyBytes(t testing.TB, payload any, version uint32) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(payload); err != nil {
		t.Fatal(err)
	}
	framed, _, err := MarshalEnvelope(ArtifactMagic, version, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return framed
}

// anlSplit generates the ANL log at scale 0.05 and returns the Phase 1
// events of its first 80 % (the training span, cut raw records long)
// and of the held-out rest.
func anlSplit(t *testing.T) (train, tail []preprocess.Event, cut int) {
	t.Helper()
	gen, err := bglsim.Generate(bglsim.ANLProfile().Scaled(0.05))
	if err != nil {
		t.Fatal(err)
	}
	cut = len(gen.Events) * 8 / 10
	return preprocess.Run(gen.Events[:cut], preprocess.Options{}).Events,
		preprocess.Run(gen.Events[cut:], preprocess.Options{}).Events, cut
}

// trainThreeBases trains a meta-learner arbitrating the classic pair
// plus the event-correlation graph.
func trainThreeBases(t *testing.T, train []preprocess.Event) *predictor.Meta {
	t.Helper()
	bases := make([]predictor.Base, 0, 3)
	for _, name := range []string{predictor.SourceStatistical, predictor.SourceRule, "ecg"} {
		b, err := core.NewBase(name)
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, b)
	}
	m := predictor.NewMetaBases(bases...)
	if err := m.Train(train); err != nil {
		t.Fatal(err)
	}
	return m
}

// samePredictions fails unless got predicts exactly what want does on
// events, and want predicts something.
func samePredictions(t *testing.T, got, want *predictor.Meta, events []preprocess.Event) {
	t.Helper()
	const window = 30 * time.Minute
	w := want.Predict(events, window)
	if len(w) == 0 {
		t.Fatal("no warnings on a failure-rich tail; fixture is degenerate")
	}
	if g := got.Predict(events, window); !reflect.DeepEqual(g, w) {
		t.Fatalf("rebuilt meta predicts differently:\n got %d warnings %+v\nwant %d warnings %+v", len(g), g, len(w), w)
	}
}

// rawTables decodes a legacy artifact's payload without the
// conversion, exposing the Stat/Rule tables as they lie on disk.
func rawTables(t *testing.T, path string) (legacyStat, legacyRule) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload, _, err := UnmarshalEnvelope(data, ArtifactMagic, ArtifactVersion)
	if err != nil {
		t.Fatal(err)
	}
	var a legacyArtifact
	if err := gobDecode(payload, &a); err != nil {
		t.Fatal(err)
	}
	return a.Stat, a.Rule
}

// TestGoldenV1Compatibility pins the version-1 format: the committed
// file keeps loading, byte-verified, with goldenArtifact's provenance
// and policy, its tables converted to the statistical and rule
// sections, and a rebuilt meta that predicts event for event what the
// pair built straight from the tables predicts.
func TestGoldenV1Compatibility(t *testing.T) {
	golden := filepath.Join("testdata", "golden_v1.bglm")
	a, info, err := Load(golden)
	if err != nil {
		t.Fatalf("golden artifact failed to load: %v", err)
	}
	if info.Version != 1 {
		t.Fatalf("golden artifact version = %d, want 1", info.Version)
	}
	if len(info.SHA256) != 64 {
		t.Fatalf("info.SHA256 = %q, want 64 hex chars", info.SHA256)
	}
	want := goldenV1()
	if !reflect.DeepEqual(a.Provenance, want.Provenance) || a.Policy != want.Policy {
		t.Fatalf("golden artifact decoded to provenance %+v policy %d\nwant %+v policy %d",
			a.Provenance, a.Policy, want.Provenance, want.Policy)
	}
	var names []string
	for _, sec := range a.Sections {
		names = append(names, sec.Name)
	}
	if !reflect.DeepEqual(names, []string{predictor.SourceStatistical, predictor.SourceRule}) {
		t.Fatalf("converted sections = %v, want [statistical rule]", names)
	}
	if vinfo, err := Verify(golden); err != nil || vinfo.SHA256 != info.SHA256 {
		t.Fatalf("Verify = %+v, %v; want sha %s", vinfo, err, info.SHA256)
	}

	m, err := a.Meta()
	if err != nil {
		t.Fatal(err)
	}
	_, tail, _ := anlSplit(t)
	samePredictions(t, m, goldenPair(), tail)
}

// TestGoldenV2ParentCompatibility loads testdata/golden_v2_parent.bglm,
// a statistical+rule+ecg artifact the build before the one-payload
// format wrote, mirror tables included, from trainThreeBases over
// anlSplit's training span. It must load and predict event for event
// what that fixture meta predicts.
func TestGoldenV2ParentCompatibility(t *testing.T) {
	golden := filepath.Join("testdata", "golden_v2_parent.bglm")
	if stat, rule := rawTables(t, golden); stat.Total == nil || len(rule.Rules) == 0 {
		t.Fatal("parent golden carries no mirror tables; it pins nothing")
	}
	a, info, err := Load(golden)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 {
		t.Fatalf("parent golden version = %d, want 2", info.Version)
	}
	m, err := a.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.BaseNames(); !reflect.DeepEqual(got, []string{predictor.SourceStatistical, predictor.SourceRule, "ecg"}) {
		t.Fatalf("parent golden bases = %v", got)
	}
	train, tail, _ := anlSplit(t)
	samePredictions(t, m, trainThreeBases(t, train), tail)
}

// TestRoundTripPredictsIdentically trains a real meta-learner, pushes
// it through FromMeta -> Save -> Load -> Meta, and asserts the
// reconstructed predictor issues the same warnings on a held-out tail.
func TestRoundTripPredictsIdentically(t *testing.T) {
	train, tail, cut := anlSplit(t)
	m := predictor.NewMeta()
	if err := m.Train(train); err != nil {
		t.Fatal(err)
	}

	prov := Provenance{
		TrainedAt: time.Now().UTC(),
		Source:    "anl scale=0.05",
		Records:   cut,
		Unique:    len(train),
	}
	a, err := FromMeta(m, prov)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.bglm")
	saved, err := a.Save(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, info, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.SHA256 != saved.SHA256 {
		t.Fatalf("load sha %s != save sha %s", info.SHA256, saved.SHA256)
	}
	if !reflect.DeepEqual(loaded, a) {
		t.Fatal("artifact did not round-trip structurally")
	}

	m2, err := loaded.Meta()
	if err != nil {
		t.Fatal(err)
	}
	samePredictions(t, m2, m, tail)

	// The artifact must be an independent copy: scribbling over its
	// sections cannot reach back into the trained predictor.
	for _, sec := range a.Sections {
		clear(sec.Data)
	}
	samePredictions(t, m, m2, tail)
}

// TestIdenticalTrainingsShareOneSHA is the identity contract: two
// trainings over the same events, finished at different wall-clock
// times, package to the same payload bytes and so to one SHA-256.
func TestIdenticalTrainingsShareOneSHA(t *testing.T) {
	train, _, cut := anlSplit(t)
	var shas []string
	for i := 0; i < 3; i++ {
		a, err := FromMeta(trainThreeBases(t, train), Provenance{
			TrainedAt: time.Now().UTC().Add(time.Duration(i) * time.Hour),
			Source:    "anl scale=0.05",
			Records:   cut,
			Unique:    len(train),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !a.Provenance.TrainedAt.IsZero() {
			t.Fatal("FromMeta kept the wall clock in the payload")
		}
		_, info, err := a.Encode()
		if err != nil {
			t.Fatal(err)
		}
		shas = append(shas, info.SHA256)
	}
	if shas[0] != shas[1] || shas[1] != shas[2] {
		t.Fatalf("identical trainings got SHAs %v", shas)
	}
}

// TestV1UpgradesToV3 is the format-migration path: a version-1 file
// loads as the classic pair's sections, and re-saving the rebuilt
// predictor produces a current-version artifact that reconstructs the
// exact same base predictors.
func TestV1UpgradesToV3(t *testing.T) {
	v1, _, err := Load(filepath.Join("testdata", "golden_v1.bglm"))
	if err != nil {
		t.Fatal(err)
	}
	converted, err := v1.Meta()
	if err != nil {
		t.Fatal(err)
	}
	upgraded, err := FromMeta(converted, v1.Provenance)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.bglm")
	if _, err := upgraded.Save(path); err != nil {
		t.Fatal(err)
	}
	v3, info, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != ArtifactVersion {
		t.Fatalf("re-saved artifact version = %d, want %d", info.Version, ArtifactVersion)
	}

	// Base by base, the sections rebuild what the tables describe.
	rebuilt, err := v3.Meta()
	if err != nil {
		t.Fatal(err)
	}
	legacy := goldenPair()
	if !reflect.DeepEqual(rebuilt.Stat, legacy.Stat) {
		t.Fatalf("statistical predictor diverged across the upgrade:\n got %+v\nwant %+v", rebuilt.Stat, legacy.Stat)
	}
	if !reflect.DeepEqual(rebuilt.Rule.Rules(), legacy.Rule.Rules()) ||
		rebuilt.Rule.ChosenWindow() != legacy.Rule.ChosenWindow() {
		t.Fatal("rule predictor diverged across the upgrade")
	}
	if rebuilt.Policy != legacy.Policy {
		t.Fatalf("policy diverged: %v != %v", rebuilt.Policy, legacy.Policy)
	}
}

// TestMetaRejectsCorruptSections extends the corruption matrix from
// the envelope down into per-predictor sections: a section naming an
// unknown predictor or carrying a mangled payload must fail
// reconstruction with a useful error, never panic or silently drop a
// base.
func TestMetaRejectsCorruptSections(t *testing.T) {
	legacy := goldenPair()
	fresh := func() *Artifact {
		a, err := FromMeta(legacy, Provenance{Source: "section corruption"})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}

	check := func(name string, mutate func(*Artifact), errSubstr string) {
		t.Helper()
		a := fresh()
		mutate(a)
		// The envelope cannot catch this: a freshly saved artifact with a
		// bad section is internally consistent bytes. Meta must.
		path := filepath.Join(t.TempDir(), "m.bglm")
		if _, err := a.Save(path); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		loaded, _, err := Load(path)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if _, err := loaded.Meta(); err == nil {
			t.Fatalf("%s: Meta() accepted a corrupt section", name)
		} else if errSubstr != "" && !strings.Contains(err.Error(), errSubstr) {
			t.Fatalf("%s: error %q does not mention %q", name, err, errSubstr)
		}
	}
	check("unknown section name",
		func(a *Artifact) { a.Sections[0].Name = "nosuch" }, `"nosuch"`)
	check("unknown name lists the known ones",
		func(a *Artifact) { a.Sections[0].Name = "nosuch" }, predictor.SourceRule)
	check("mangled statistical payload",
		func(a *Artifact) { a.Sections[0].Data = []byte("garbage") }, "statistical")
	check("mangled rule payload",
		func(a *Artifact) { a.Sections[1].Data = []byte{0xff, 0x00} }, "rule")
	check("empty section payload",
		func(a *Artifact) { a.Sections[1].Data = nil }, "")

	// The correlation graph is a matrix over the taxonomy: SetState
	// refuses what it cannot hold, or what training never produces.
	nodes := []ecg.Node{{ID: 3, Count: 4}, {ID: 7, Count: 2}}
	edges := []ecg.Edge{{From: 3, To: 7, Count: 2}}
	withGraph := func(nodes []ecg.Node, edges []ecg.Edge) func(*Artifact) {
		return func(a *Artifact) { a.Sections = append(a.Sections, ecgSection(nodes, edges)) }
	}
	valid := fresh()
	withGraph(nodes, edges)(valid)
	if _, err := valid.Meta(); err != nil {
		t.Fatalf("well-formed ecg section refused: %v", err)
	}
	node := func(id, count int) []ecg.Node {
		return append([]ecg.Node{nodes[0], nodes[1]}, ecg.Node{ID: id, Count: count})
	}
	edge := func(from, to, count int) []ecg.Edge {
		return append([]ecg.Edge{edges[0]}, ecg.Edge{From: from, To: to, Count: count})
	}
	check("ecg node ID past the taxonomy",
		withGraph(node(catalog.NumSubcategories, 1), edges), "outside the taxonomy")
	check("ecg negative node ID", withGraph(node(-1, 1), edges), "outside the taxonomy")
	check("ecg duplicate node", withGraph(node(7, 1), edges), "duplicate node 7")
	check("ecg zero node count", withGraph(node(9, 0), edges), "count 0")
	check("ecg edge ID past the taxonomy",
		withGraph(nodes, edge(3, catalog.NumSubcategories+5, 1)), "outside the taxonomy")
	check("ecg negative edge ID", withGraph(nodes, edge(-2, 7, 1)), "outside the taxonomy")
	check("ecg duplicate edge", withGraph(nodes, edge(3, 7, 1)), "duplicate edge 3->7")
	check("ecg zero edge count", withGraph(nodes, edge(7, 3, 0)), "count 0")
	check("ecg edge off the graph", withGraph(nodes, edge(7, 9, 1)), "does not hold")
	check("ecg edge probability above 1", withGraph(nodes, edge(7, 3, 3)), "of node 7's 2 occurrences")
}

// ecgSection hand-encodes an ecg section over the given graph, valid
// or not, in the layout ecg's State writes, with the zero
// configuration (the defaults).
func ecgSection(nodes []ecg.Node, edges []ecg.Edge) Section {
	b := canon.AppendUint(nil, 1)
	b = canon.AppendInt(b, 0)
	b = canon.AppendInt(b, 0)
	b = canon.AppendFloat(b, 0)
	b = canon.AppendInt(b, 0)
	b = canon.AppendFloat(b, 0)
	b = canon.AppendUint(b, uint64(len(nodes)))
	for _, n := range nodes {
		b = canon.AppendInt(canon.AppendInt(b, int64(n.ID)), int64(n.Count))
	}
	b = canon.AppendUint(b, uint64(len(edges)))
	for _, e := range edges {
		for _, v := range []int64{int64(e.From), int64(e.To), int64(e.Count), int64(e.GapSum), int64(e.MinGap), int64(e.MaxGap)} {
			b = canon.AppendInt(b, v)
		}
	}
	return Section{Name: ecg.Source, Data: b}
}

// TestLegacyRejectsCorruptSections: a version-2 artifact whose section
// no legacy decoder reads, or whose gob section is mangled, fails to
// load with the section named, never panics.
func TestLegacyRejectsCorruptSections(t *testing.T) {
	for _, c := range []struct {
		sec  Section
		want string
	}{
		{Section{Name: "nosuch", Data: []byte{1}}, `"nosuch"`},
		{Section{Name: predictor.SourceStatistical, Data: []byte("garbage")}, "statistical"},
		{Section{Name: predictor.SourceRule, Data: nil}, "rule"},
		{Section{Name: ecg.Source, Data: []byte{0xff, 0}}, "ecg"},
	} {
		data := legacyBytes(t, &legacyArtifact{Sections: []Section{c.sec}}, 2)
		if _, _, err := Decode(data); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("section %q: error %v, want one naming %s", c.sec.Name, err, c.want)
		}
	}
}

// TestFromMetaUntrained rejects half-built predictors.
func TestFromMetaUntrained(t *testing.T) {
	if _, err := FromMeta(nil, Provenance{}); err == nil {
		t.Fatal("nil meta accepted")
	}
	if _, err := FromMeta(predictor.NewMeta(), Provenance{}); err == nil {
		t.Fatal("untrained meta accepted")
	}
}

// TestThreeBaseRoundTrip saves and reloads a meta-learner arbitrating
// three bases — the classic pair plus the event-correlation
// graph. The reconstructed ensemble must carry all three sections and
// predict identically.
func TestThreeBaseRoundTrip(t *testing.T) {
	train, tail, _ := anlSplit(t)
	m := trainThreeBases(t, train)
	a, err := FromMeta(m, Provenance{Source: "three bases"})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, sec := range a.Sections {
		names = append(names, sec.Name)
	}
	if !reflect.DeepEqual(names, []string{predictor.SourceStatistical, predictor.SourceRule, "ecg"}) {
		t.Fatalf("sections = %v, want all three bases in arbitration order", names)
	}

	path := filepath.Join(t.TempDir(), "m.bglm")
	if _, err := a.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, info, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != ArtifactVersion {
		t.Fatalf("version = %d, want %d", info.Version, ArtifactVersion)
	}
	m2, err := loaded.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.BaseNames(); !reflect.DeepEqual(got, []string{predictor.SourceStatistical, predictor.SourceRule, "ecg"}) {
		t.Fatalf("reconstructed bases = %v", got)
	}
	samePredictions(t, m2, m, tail)
}

// reloaded saves a, loads it back and rebuilds its meta-learner.
func reloaded(t *testing.T, a *Artifact) (*predictor.Meta, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.bglm")
	if _, err := a.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return loaded.Meta()
}

// TestRetiredPolicyLoadsAsCoverage holds an artifact saved under the
// retired policy 2 (max-confidence, whose gate was coverage's) to what
// it always ran as: it loads as coverage and predicts event for event
// what the coverage meta predicts.
func TestRetiredPolicyLoadsAsCoverage(t *testing.T) {
	train, tail, _ := anlSplit(t)
	m := trainThreeBases(t, train)
	a, err := FromMeta(m, Provenance{Source: "retired policy"})
	if err != nil {
		t.Fatal(err)
	}
	a.Policy = 2
	m2, err := reloaded(t, a)
	if err != nil {
		t.Fatalf("artifact with the retired policy 2 refused: %v", err)
	}
	if m2.Policy != predictor.PolicyCoverage {
		t.Fatalf("retired policy 2 loaded as %v, want coverage", m2.Policy)
	}
	samePredictions(t, m2, m, tail)
}

// TestMetaRefusesUnknownPolicy: an artifact whose policy number names
// no policy must not load, or the Stepper would run it ungated.
func TestMetaRefusesUnknownPolicy(t *testing.T) {
	for _, policy := range []int{-1, 5, 9} {
		a, err := FromMeta(goldenPair(), Provenance{Source: "unknown policy"})
		if err != nil {
			t.Fatal(err)
		}
		a.Policy = policy
		_, err = reloaded(t, a)
		if err == nil {
			t.Fatalf("artifact with policy %d loaded", policy)
		}
		if want := fmt.Sprintf("policy %d", policy); !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// TestLoadRejectsCorruption exercises every framing failure mode:
// wrong magic, truncations at each boundary, a flipped payload byte,
// a future version, and declared-length mismatches.
func TestLoadRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.bglm")
	if _, err := goldenArtifact().Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, mutate func([]byte) []byte) {
		t.Helper()
		bad := mutate(append([]byte(nil), data...))
		if _, _, err := Decode(bad); err == nil {
			t.Fatalf("%s: corrupted artifact decoded without error", name)
		}
	}
	check("empty", func(b []byte) []byte { return nil })
	check("truncated header", func(b []byte) []byte { return b[:10] })
	check("truncated payload", func(b []byte) []byte { return b[:len(b)-1] })
	check("trailing garbage", func(b []byte) []byte { return append(b, 0xff) })
	check("bad magic", func(b []byte) []byte { b[0] = 'X'; return b })
	check("future version", func(b []byte) []byte { b[7] = 99; return b })
	check("zero version", func(b []byte) []byte { b[4], b[5], b[6], b[7] = 0, 0, 0, 0; return b })
	check("flipped payload byte", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b })
	check("flipped hash byte", func(b []byte) []byte { b[20] ^= 0x01; return b })
	check("huge declared length", func(b []byte) []byte {
		for i := 8; i < 16; i++ {
			b[i] = 0xff
		}
		return b
	})

	// Verify must reject the same corruption without decoding.
	if err := os.WriteFile(path, append(data[:40:40], data[41:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(path); err == nil {
		t.Fatal("Verify accepted a corrupted file")
	}
}

// TestSaveAtomicOverwrite proves an overwrite leaves no temp debris
// and the new content lands fully.
func TestSaveAtomicOverwrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.bglm")
	first := goldenArtifact()
	if _, err := first.Save(path); err != nil {
		t.Fatal(err)
	}
	second := goldenArtifact()
	second.Provenance.Records = 2000
	if _, err := second.Save(path); err != nil {
		t.Fatal(err)
	}
	got, _, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Provenance.Records != 2000 {
		t.Fatalf("overwrite did not land: Records = %d", got.Provenance.Records)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want just the artifact", len(entries))
	}
}
