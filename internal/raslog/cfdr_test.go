package raslog

import (
	"io"
	"math/rand/v2"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const cfdrSample = `- 1117838570 2005.06.03 R02-M1-N0-C:J12-U11 2005-06-03-15.42.50.363779 R02-M1-N0-C:J12-U11 RAS KERNEL INFO instruction cache parity error corrected
- 1117838573 2005.06.03 R24-M0-N9-I:J18-U01 2005-06-03-15.42.53.100000 R24-M0-N9-I:J18-U01 RAS KERNEL FATAL data TLB error interrupt
KERNDTLB 1117838976 2005.06.03 R23-M0-NE-C:J05-U01 2005-06-03-15.49.36.156884 R23-M0-NE-C:J05-U01 RAS KERNEL FATAL data TLB error interrupt
- 1117842440 2005.06.03 R16-M1-L2 2005-06-03-16.47.20.730545 R16-M1-L2 RAS LINKCARD FAILURE MidplaneSwitchController
- 1117842441 2005.06.03 R16-M1-S 2005-06-03-16.47.21.000000 R16-M1-S RAS MMCS WARNING service action started
- 1117842442 2005.06.03 UNKNOWN_LOCATION 2005-06-03-16.47.22.000000 UNKNOWN_LOCATION RAS MONITOR SEVERE fan speed low`

func TestCFDRReaderParsesSample(t *testing.T) {
	r := NewCFDRReader(strings.NewReader(cfdrSample))
	events, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 6 {
		t.Fatalf("parsed %d events, want 6", len(events))
	}
	if r.Skipped != 0 {
		t.Fatalf("skipped %d valid lines", r.Skipped)
	}

	e := events[0]
	if e.RecID != 1 || e.Type != "RAS" || e.Facility != "KERNEL" || e.Severity != Info {
		t.Fatalf("first event = %+v", e)
	}
	if !e.Time.Equal(time.Unix(1117838570, 0).UTC()) {
		t.Fatalf("time = %v", e.Time)
	}
	if e.JobID != NoJob {
		t.Fatalf("public trace has no job ids; got %d", e.JobID)
	}
	if e.EntryData != "instruction cache parity error corrected" {
		t.Fatalf("entry = %q", e.EntryData)
	}
	want := Location{Kind: KindComputeChip, Rack: 2, Midplane: 1, Card: 0, Chip: 25}
	if e.Location != want {
		t.Fatalf("location = %+v, want %+v", e.Location, want)
	}

	if events[1].Location.Kind != KindIONode || !events[1].Severity.IsFatal() {
		t.Fatalf("io event = %+v", events[1])
	}
	// Hex node card NE = 14.
	if events[2].Location.Card != 14 {
		t.Fatalf("hex node card = %+v", events[2].Location)
	}
	if events[3].Location.Kind != KindLinkCard || events[3].Severity != Failure {
		t.Fatalf("linkcard event = %+v", events[3])
	}
	if events[4].Location.Kind != KindServiceCard {
		t.Fatalf("service event = %+v", events[4])
	}
	// Unknown location tolerated.
	if events[5].Location.Kind != KindUnknown {
		t.Fatalf("unknown location = %+v", events[5].Location)
	}
}

func TestCFDRLocationGrammar(t *testing.T) {
	cases := map[string]Location{
		"R02":                 {Kind: KindRack, Rack: 2},
		"R02-M1":              {Kind: KindMidplane, Rack: 2, Midplane: 1},
		"R02-M1-N0":           {Kind: KindNodeCard, Rack: 2, Midplane: 1},
		"R02-M1-NF":           {Kind: KindNodeCard, Rack: 2, Midplane: 1, Card: 15},
		"R02-M1-L3":           {Kind: KindLinkCard, Rack: 2, Midplane: 1, Card: 3},
		"R02-M1-S":            {Kind: KindServiceCard, Rack: 2, Midplane: 1},
		"R02-M1-N0-C:J04":     {Kind: KindComputeChip, Rack: 2, Midplane: 1, Chip: 8},
		"R02-M1-N0-C:J04-U11": {Kind: KindComputeChip, Rack: 2, Midplane: 1, Chip: 9},
		"R02-M1-N0-I:J18-U01": {Kind: KindIONode, Rack: 2, Midplane: 1, Chip: 36},
		"-":                   {},
		"":                    {},
	}
	for text, want := range cases {
		got, err := ParseCFDRLocation(text)
		if err != nil {
			t.Fatalf("ParseCFDRLocation(%q): %v", text, err)
		}
		if got != want {
			t.Errorf("ParseCFDRLocation(%q) = %+v, want %+v", text, got, want)
		}
	}
	for _, bad := range []string{"X02", "R02-M2", "R02-M1-Q0", "R02-M1-N0-Z:J1",
		"R02-M1-N0-C:Jxx", "R02-M1-N0-C:J04-Vxx", "R02-M1-NZZ", "R02-M1-"} {
		if _, err := ParseCFDRLocation(bad); err == nil {
			t.Errorf("ParseCFDRLocation(%q) succeeded, want error", bad)
		}
	}
}

func TestCFDRChipIndexInjectivePerCard(t *testing.T) {
	// Distinct (J, U) positions on one card must map to distinct chip
	// indices, or compression would over-merge.
	seen := map[int]string{}
	for j := 2; j <= 17; j++ {
		for _, u := range []int{1, 11} {
			text := "R00-M0-N0-C:J" + itoa2(j) + "-U" + itoa2(u)
			loc, err := ParseCFDRLocation(text)
			if err != nil {
				t.Fatalf("%q: %v", text, err)
			}
			if prev, dup := seen[loc.Chip]; dup {
				t.Fatalf("chip index collision: %q and %q both map to %d", prev, text, loc.Chip)
			}
			seen[loc.Chip] = text
		}
	}
}

func itoa2(n int) string {
	if n < 10 {
		return "0" + string(rune('0'+n))
	}
	return string(rune('0'+n/10)) + string(rune('0'+n%10))
}

func TestCFDRReaderSkipsMalformedByDefault(t *testing.T) {
	input := "garbage line\n" + cfdrSample
	r := NewCFDRReader(strings.NewReader(input))
	events, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 6 || r.Skipped != 1 {
		t.Fatalf("events=%d skipped=%d", len(events), r.Skipped)
	}
}

func TestCFDRReaderStrictMode(t *testing.T) {
	r := NewCFDRReader(strings.NewReader("garbage line"))
	r.Strict = true
	if _, err := r.Read(); err == nil || err == io.EOF {
		t.Fatalf("strict mode tolerated garbage: %v", err)
	}
}

func TestCFDRReaderRejectsBadSeverity(t *testing.T) {
	line := "- 1117838570 2005.06.03 R02-M1-S 2005-06-03-15.42.50.363779 R02-M1-S RAS KERNEL NOTASEVERITY text"
	r := NewCFDRReader(strings.NewReader(line))
	r.Strict = true
	if _, err := r.Read(); err == nil || err == io.EOF {
		t.Fatal("bad severity accepted")
	}
}

func TestReadCFDRFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bgl.log")
	if err := writeFileString(path, cfdrSample+"\nbroken\n"); err != nil {
		t.Fatal(err)
	}
	events, skipped, err := ReadCFDRFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 6 || skipped != 1 {
		t.Fatalf("events=%d skipped=%d", len(events), skipped)
	}
}

func TestCFDREventsFeedTheLogDialect(t *testing.T) {
	// Parsed public-trace events must be writable in our dialect (the
	// bridge a user needs to convert the real log once and reuse it).
	r := NewCFDRReader(strings.NewReader(cfdrSample))
	events, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "converted.raslog")
	if err := WriteFile(path, events); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAnyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("round trip %d != %d", len(back), len(events))
	}
}

func TestCFDRWriteReadRoundTrip(t *testing.T) {
	// Events exported to the public format and re-imported must agree
	// on every attribute the format can carry (JOB ID is lost; RecIDs
	// are re-assigned by arrival order).
	events := []Event{
		mkEvent(1, t0),
		mkEvent(2, t0.Add(time.Minute)),
	}
	events[1].Location = Location{Kind: KindIONode, Rack: 3, Midplane: 1, Card: 9, Chip: 37}
	events[1].Severity = Failure
	events[1].Facility = "LINKCARD"
	events[1].EntryData = "MidplaneSwitchController failure"

	dir := t.TempDir()
	path := filepath.Join(dir, "export.cfdr")
	if err := WriteCFDRFile(path, events); err != nil {
		t.Fatal(err)
	}
	back, skipped, err := ReadCFDRFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(back) != len(events) {
		t.Fatalf("skipped=%d len=%d", skipped, len(back))
	}
	for i := range events {
		e, b := events[i], back[i]
		if !b.Time.Equal(e.Time) || b.Severity != e.Severity ||
			b.Facility != e.Facility || b.EntryData != e.EntryData ||
			b.Location != e.Location || b.Type != e.Type {
			t.Fatalf("record %d drift:\n out %+v\n in  %+v", i, e, b)
		}
		if b.JobID != NoJob {
			t.Fatalf("record %d kept a job id through a format without one", i)
		}
	}
}

func TestFormatCFDRLocationRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(121, 122))
	for trial := 0; trial < 2000; trial++ {
		loc := randomLocation(rng)
		text := FormatCFDRLocation(loc)
		back, err := ParseCFDRLocation(text)
		if err != nil {
			t.Fatalf("cannot re-parse %q (from %+v): %v", text, loc, err)
		}
		if back != loc {
			t.Fatalf("round trip drift: %+v -> %q -> %+v", loc, text, back)
		}
	}
	if FormatCFDRLocation(Location{}) != "UNKNOWN_LOCATION" {
		t.Fatal("unknown location should format as UNKNOWN_LOCATION")
	}
}
