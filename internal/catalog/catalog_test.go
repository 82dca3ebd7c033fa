package catalog

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"bglpred/internal/raslog"
)

func TestTaxonomySizeMatchesPaperTable3(t *testing.T) {
	if got := len(All()); got != NumSubcategories {
		t.Fatalf("taxonomy has %d subcategories, want %d", got, NumSubcategories)
	}
	want := map[Main]int{
		Application: 12,
		Iostream:    8,
		Kernel:      20,
		Memory:      22,
		Midplane:    6,
		Network:     11,
		NodeCard:    10,
		Other:       12,
	}
	got := CountByMain()
	for m, n := range want {
		if got[m] != n {
			t.Errorf("%v: %d subcategories, want %d (paper Table 3)", m, got[m], n)
		}
	}
	total := 0
	for _, n := range want {
		total += n
	}
	if total != NumSubcategories {
		t.Fatalf("paper Table 3 totals %d, want %d", total, NumSubcategories)
	}
}

func TestTaxonomyNamesUniqueAndWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range All() {
		if seen[s.Name] {
			t.Errorf("duplicate subcategory name %q", s.Name)
		}
		seen[s.Name] = true
		if s.Name == "" || s.Phrase == "" || len(s.Keys) == 0 {
			t.Errorf("%q: incomplete definition", s.Name)
		}
		if !s.Main.Valid() {
			t.Errorf("%q: invalid main category", s.Name)
		}
		if !s.Severity.Valid() {
			t.Errorf("%q: invalid severity", s.Name)
		}
		if s.Facility == "" {
			t.Errorf("%q: empty facility", s.Name)
		}
		// Every key must occur in the canonical phrase; otherwise the
		// classifier could never match generated records.
		phrase := strings.ToLower(s.Phrase)
		for _, k := range s.Keys {
			if !strings.Contains(phrase, strings.ToLower(k)) {
				t.Errorf("%q: key %q not in phrase %q", s.Name, k, s.Phrase)
			}
		}
	}
}

func TestFigure3RuleNamesExist(t *testing.T) {
	// Every event name appearing in paper Figure 3's printed rules must
	// be a taxonomy member ("Functioanlity" is the paper's typo for
	// Functionality).
	names := []string{
		"nodemapFileError", "nodemapCreateFailure",
		"controlNetworkNMCSError", "nodeConnectionFailure",
		"ddrErrorCorrectionInfo", "maskInfo", "socketReadFailure",
		"ciodRestartInfo", "midplaneStartInfo", "controlNetworkInfo",
		"rtsLinkFailure", "nodecardUPDMismatch",
		"nodecardAssemblySevereDiscovery", "nodecardFunctionalityWarning",
		"midplaneLinkcardRestartWarning", "linkcardFailure",
		"coredumpCreated", "loadProgramFailure", "BGLMasterRestartInfo",
		"cacheFailure", "nodecardDiscoveryError", "endServiceWarning",
	}
	for _, name := range names {
		if _, ok := byName[name]; !ok {
			t.Errorf("paper Figure 3 name %q missing from taxonomy", name)
		}
	}
}

func eventFor(s *Subcategory, detail string) raslog.Event {
	return raslog.Event{
		RecID:     1,
		Type:      raslog.EventTypeRAS,
		Time:      time.Date(2005, 1, 21, 0, 0, 0, 0, time.UTC),
		JobID:     7,
		Location:  raslog.Location{Kind: raslog.KindComputeChip, Rack: 1},
		EntryData: s.Phrase + detail,
		Facility:  s.Facility,
		Severity:  s.Severity,
	}
}

func TestClassifierSelfConsistent(t *testing.T) {
	// The generator emits each subcategory's canonical phrase; the
	// classifier must map every one of the 101 phrases back to its own
	// subcategory — this is the taxonomy's central invariant.
	c := NewClassifier()
	for i := range All() {
		s := &All()[i]
		ev := eventFor(s, "")
		got, ok := c.Classify(&ev)
		if !ok {
			t.Errorf("%q: classifier found no match", s.Name)
			continue
		}
		if got.Name != s.Name {
			t.Errorf("%q classified as %q", s.Name, got.Name)
		}
	}
}

func TestClassifierToleratesDetailSuffixes(t *testing.T) {
	// Generated ENTRY DATA often carries variable detail after the
	// canonical phrase (addresses, counts, node numbers). Suffixes must
	// not change classification.
	c := NewClassifier()
	suffixes := []string{
		" at address 0x00fe4a10",
		".. 3145 total",
		" (node 512)",
		", rc=-1",
	}
	for i := range All() {
		s := &All()[i]
		for _, suffix := range suffixes {
			ev := eventFor(s, suffix)
			got, ok := c.Classify(&ev)
			if !ok || got.Name != s.Name {
				t.Errorf("%q + %q classified as %v", s.Name, suffix, got)
			}
		}
	}
}

func TestClassifierSpecificityPrefersLongerSignature(t *testing.T) {
	// "uncorrectable ecc" contains "correctable ecc" as a substring, so
	// the fatal record qualifies for both; specificity scoring must
	// pick the uncorrectable one.
	c := NewClassifier()
	s := MustByName("eccUncorrectableFailure")
	ev := eventFor(s, "")
	got, ok := c.Classify(&ev)
	if !ok || got.Name != "eccUncorrectableFailure" {
		t.Fatalf("classified as %v, want eccUncorrectableFailure", got)
	}
}

func TestClassifierNoMatch(t *testing.T) {
	c := NewClassifier()
	ev := raslog.Event{EntryData: "completely unrelated text", Facility: "NOPE"}
	if got, ok := c.Classify(&ev); ok {
		t.Fatalf("classified junk as %v", got)
	}
}

func TestClassifierSeverityIsTieBreakOnly(t *testing.T) {
	// A record with the right keywords but an unusual severity still
	// classifies (severity only breaks ties).
	c := NewClassifier()
	s := MustByName("torusFailure")
	ev := eventFor(s, "")
	ev.Severity = raslog.Error
	got, ok := c.Classify(&ev)
	if !ok || got.Name != "torusFailure" {
		t.Fatalf("classified as %v, want torusFailure", got)
	}
}

func TestByIDRoundTrip(t *testing.T) {
	for i := range All() {
		s, ok := ByID(i)
		if !ok || s.ID != i {
			t.Fatalf("ByID(%d) = %v, %v", i, s, ok)
		}
	}
	if _, ok := ByID(-1); ok {
		t.Error("ByID(-1) should fail")
	}
	if _, ok := ByID(NumSubcategories); ok {
		t.Error("ByID(len) should fail")
	}
}

func TestMustByNamePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustByName of unknown name did not panic")
		}
	}()
	MustByName("noSuchEvent")
}

func TestMainString(t *testing.T) {
	want := []string{"Application", "Iostream", "Kernel", "Memory",
		"Midplane", "Network", "NodeCard", "Other"}
	for i, m := range Mains() {
		if m.String() != want[i] {
			t.Errorf("Main(%d).String() = %q, want %q", i, m.String(), want[i])
		}
	}
	if got := Main(42).String(); got != "Main(42)" {
		t.Errorf("out-of-range String = %q", got)
	}
}

func TestTaxonomyHasFatalAndNonFatalPerMain(t *testing.T) {
	// Rule mining needs non-fatal precursors and fatal heads. Every
	// main category except Other must contain at least one fatal
	// subcategory, and the taxonomy overall needs plenty of non-fatal
	// ones.
	fatal := map[Main]int{}
	nonfatal := 0
	for _, s := range All() {
		if s.IsFatal() {
			fatal[s.Main]++
		} else {
			nonfatal++
		}
	}
	for _, m := range Mains() {
		if m == Other {
			continue
		}
		if fatal[m] == 0 {
			t.Errorf("%v has no fatal subcategory", m)
		}
	}
	if nonfatal < 40 {
		t.Errorf("only %d non-fatal subcategories; precursor mining needs more", nonfatal)
	}
}

func TestClassifyAllPhrasesDistinct(t *testing.T) {
	// No two subcategories may share a canonical phrase.
	seen := map[string]string{}
	for _, s := range All() {
		if prev, dup := seen[s.Phrase]; dup {
			t.Errorf("phrase %q shared by %s and %s", s.Phrase, prev, s.Name)
		}
		seen[s.Phrase] = s.Name
	}
}

func ExampleClassifier_Classify() {
	c := NewClassifier()
	ev := raslog.Event{
		EntryData: "uncorrectable torus error detected at 0x0bad",
		Facility:  FacKernel,
		Severity:  raslog.Fatal,
	}
	s, _ := c.Classify(&ev)
	fmt.Println(s.Name, s.Main, s.IsFatal())
	// Output: torusFailure Network true
}
