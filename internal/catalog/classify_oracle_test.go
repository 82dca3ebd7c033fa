package catalog

import (
	"strings"
	"testing"

	"bglpred/internal/raslog"
)

// refClassifier is the keyword Classifier before the one-pass
// signature index: every subcategory's keys tested in turn with
// strings.Contains against the lowered entry. Its code is the parent
// commit's verbatim but for the receiver's type; Classify is held to
// it.
type refClassifier struct {
	// lowered caches the lowercase keys per subcategory.
	lowered [][]string
}

func newRefClassifier() *refClassifier {
	c := &refClassifier{lowered: make([][]string, len(taxonomy))}
	for i := range taxonomy {
		keys := make([]string, len(taxonomy[i].Keys))
		for j, k := range taxonomy[i].Keys {
			keys[j] = strings.ToLower(k)
		}
		c.lowered[i] = keys
	}
	return c
}

func (c *refClassifier) Classify(e *raslog.Event) (*Subcategory, bool) {
	entry := strings.ToLower(e.EntryData)
	best := -1
	bestScore := -1
	for i := range taxonomy {
		score := 0
		ok := true
		for _, k := range c.lowered[i] {
			if !strings.Contains(entry, k) {
				ok = false
				break
			}
			score += len(k) * 4
		}
		if !ok {
			continue
		}
		if taxonomy[i].Facility == e.Facility {
			score += 2
		}
		if taxonomy[i].Severity == e.Severity {
			score++
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 {
		return nil, false
	}
	return &taxonomy[best], true
}

// classifyCase is one record the classifier must answer as the
// reference does; want names the expected subcategory ("" for none)
// where the case was written to land on a particular one.
type classifyCase struct {
	entry, facility string
	severity        raslog.Severity
	want            string
}

// classifyCases are the inputs the one-pass index is easiest to get
// wrong on: every taxonomy phrase under its own and foreign
// attributes and in other cases, keys that contain other keys, ties
// settled by FACILITY, by SEVERITY and by table order, and text
// strings.ToLower folds outside ASCII.
func classifyCases() []classifyCase {
	var cs []classifyCase
	for i := range taxonomy {
		s := &taxonomy[i]
		cs = append(cs,
			classifyCase{s.Phrase, s.Facility, s.Severity, s.Name},
			classifyCase{strings.ToUpper(s.Phrase), s.Facility, s.Severity, s.Name},
			classifyCase{s.Phrase + " at 0x00fe4a10", "", raslog.Info, ""},
			classifyCase{"prefix " + s.Phrase, FacKernel, raslog.Fatal, ""},
		)
	}
	return append(cs,
		// Mixed case and the empty entry.
		classifyCase{"KeRnEl PaNiC: unable to continue", FacKernel, raslog.Fatal, "kernelPanicFailure"},
		classifyCase{"Uncorrectable Torus Error", "", raslog.Info, "torusFailure"},
		classifyCase{"", FacKernel, raslog.Fatal, ""},
		classifyCase{"k", "", raslog.Info, ""},
		classifyCase{"ke", "", raslog.Info, ""},
		classifyCase{"completely unrelated text", "NOPE", raslog.Info, ""},
		// Overlapping keys: "node map" inside "node map file", "ethernet"
		// inside "ethernet link", "correctable ecc" inside "uncorrectable
		// ecc", and keys overlapping each other in the text.
		classifyCase{"node map", FacCiod, raslog.Error, ""},
		classifyCase{"node map file", FacCiod, raslog.Error, "nodemapFileError"},
		classifyCase{"create node map file", FacCiod, raslog.Error, "nodemapCreateFailure"},
		classifyCase{"ethernet", FacKernel, raslog.Fatal, ""},
		classifyCase{"ethernet link", FacMonitor, raslog.Warning, "ethernetLinkWarning"},
		classifyCase{"ethernet link failure", FacMonitor, raslog.Warning, "ethernetFailure"},
		classifyCase{"uncorrectable ecc", FacHardware, raslog.Info, "eccUncorrectableFailure"},
		classifyCase{"correctable ecc", FacHardware, raslog.Fatal, "eccCorrectableInfo"},
		classifyCase{"node mapnode map file", FacCiod, raslog.Error, "nodemapFileError"},
		classifyCase{"filefile server", FacCiod, raslog.Error, ""},
		classifyCase{"file serverread", "", raslog.Info, "fileReadError"},
		// Equal specificity: SEVERITY decides, then table order.
		classifyCase{"application signal exited", FacApp, raslog.Fatal, "appSignalFatal"},
		classifyCase{"application signal exited", FacApp, raslog.Failure, "appExitFailure"},
		classifyCase{"application signal exited", FacApp, raslog.Info, "appSignalFatal"},
		// Equal specificity: FACILITY decides, then table order.
		classifyCase{"file server read by application", FacApp, raslog.Error, "appReadError"},
		classifyCase{"file server read by application", FacCiod, raslog.Error, "fileReadError"},
		classifyCase{"file server read by application", "", raslog.Error, "appReadError"},
		classifyCase{"socket stream read", FacCiod, raslog.Failure, "socketReadFailure"},
		// Equal specificity from disjoint keys, the later subcategory's key
		// found first: table order still decides.
		classifyCase{"tlb dcr", "", raslog.Info, "tlbExceptionFailure"},
		// One byte more of signature outweighs a FACILITY and a SEVERITY
		// match.
		classifyCase{"dcr mask", FacKernel, raslog.Error, "maskInfo"},
		// Outside ASCII: strings.ToLower folds U+212A KELVIN SIGN to "k"
		// and invalid bytes to U+FFFD, and U+0130 grows a combining dot.
		classifyCase{"\u212Aernel panic", FacKernel, raslog.Fatal, "kernelPanicFailure"},
		classifyCase{"\u212AERNEL PANIC", "", raslog.Info, "kernelPanicFailure"},
		classifyCase{"kernel pan\u0130c", FacKernel, raslog.Fatal, ""},
		classifyCase{"\xffkernel panic", FacKernel, raslog.Fatal, "kernelPanicFailure"},
		classifyCase{"kernel\xc0panic", FacKernel, raslog.Fatal, ""},
		classifyCase{"t\u00f6rus error, torus error", FacKernel, raslog.Fatal, "torusFailure"},
		classifyCase{strings.Repeat("\u00e9", 200) + " tlb", FacKernel, raslog.Fatal, "tlbExceptionFailure"},
		classifyCase{strings.Repeat("x", 300) + " Watchdog", FacKernel, raslog.Fatal, "watchdogTimeoutFailure"},
	)
}

func nameOf(s *Subcategory, ok bool) string {
	if !ok {
		return ""
	}
	return s.Name
}

// TestClassifierMatchesReference: on every case the classifier names
// the reference's subcategory, or none when it does, and where a case
// expects a particular subcategory both name it.
func TestClassifierMatchesReference(t *testing.T) {
	clf, ref := NewClassifier(), newRefClassifier()
	for _, c := range classifyCases() {
		ev := raslog.Event{EntryData: c.entry, Facility: c.facility, Severity: c.severity}
		got, want := nameOf(clf.Classify(&ev)), nameOf(ref.Classify(&ev))
		if got != want {
			t.Errorf("%q %s %v: classified %q, reference %q", c.entry, c.facility, c.severity, got, want)
		}
		if c.want != "" && want != c.want {
			t.Errorf("%q %s %v: reference says %q, the case expects %q", c.entry, c.facility, c.severity, want, c.want)
		}
	}
}

// FuzzClassifierMatchesReference is the same oracle over arbitrary
// entries, facilities and severities, seeded with the table cases.
func FuzzClassifierMatchesReference(f *testing.F) {
	for _, c := range classifyCases() {
		f.Add(c.entry, c.facility, int(c.severity))
	}
	clf, ref := NewClassifier(), newRefClassifier()
	f.Fuzz(func(t *testing.T, entry, facility string, severity int) {
		ev := raslog.Event{EntryData: entry, Facility: facility, Severity: raslog.Severity(severity)}
		if got, want := nameOf(clf.Classify(&ev)), nameOf(ref.Classify(&ev)); got != want {
			t.Fatalf("%q %q %d: classified %q, reference %q", entry, facility, severity, got, want)
		}
	})
}
