package raslog

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func randomEvent(rng *rand.Rand, recID int64) Event {
	facilities := []string{"KERNEL", "APP", "LINKCARD", "MMCS", "MONITOR", "HARDWARE"}
	entries := []string{
		"uncorrectable torus error",
		"socket closed",
		"ddr error correction info",
		"instruction address: 0x0000dead",
		"node card assembly warning",
	}
	return Event{
		RecID:     recID,
		Type:      EventTypeRAS,
		Time:      t0.Add(time.Duration(rng.IntN(100000)) * time.Second),
		JobID:     int64(rng.IntN(2000)) - 1,
		Location:  randomLocation(rng),
		EntryData: entries[rng.IntN(len(entries))],
		Facility:  facilities[rng.IntN(len(facilities))],
		Severity:  Severity(rng.IntN(int(numSeverities))),
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	events := make([]Event, 1000)
	for i := range events {
		events[i] = randomEvent(rng, int64(i))
	}
	events = append(events, mkEvent(1000, rangeStart), mkEvent(1001, rangeEnd))
	// The extremes of the fixed fields: both int64 ends in the ids, both
	// ends of the time range, and each location kind with every number
	// at the most the writers carry.
	const n = wireMaxLocField
	for i, loc := range []Location{
		{Kind: KindRack, Rack: n}, {Kind: KindMidplane, Rack: n, Midplane: 1},
		{Kind: KindNodeCard, Rack: n, Midplane: 1, Card: n}, {Kind: KindComputeChip, Rack: n, Midplane: 1, Card: n, Chip: n},
		{Kind: KindIONode, Rack: n, Midplane: 1, Card: n, Chip: n}, {Kind: KindLinkCard, Rack: n, Midplane: 1, Card: n},
		{Kind: KindServiceCard, Rack: n, Midplane: 1},
	} {
		e := mkEvent(math.MinInt64, rangeStart)
		if i%2 == 1 {
			e = mkEvent(math.MaxInt64, rangeEnd)
		}
		e.JobID, e.Location = -e.RecID-1, loc
		events = append(events, e)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := range events {
		if err := w.Write(&events[i]); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if w.Count() != int64(len(events)) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(events))
	}

	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(got) != len(events) {
		t.Fatalf("read %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d round trip mismatch:\n got %+v\nwant %+v", i, got[i], events[i])
		}
	}
}

func TestWriterRejectsInvalid(t *testing.T) {
	cases := map[string]func(*Event){
		"empty type":          func(e *Event) { e.Type = "" },
		"before 1970":         func(e *Event) { e.Time = beforeRange },
		"after 2262":          func(e *Event) { e.Time = afterRange },
		"pipe in type":        func(e *Event) { e.Type = "R|S" },
		"pipe in entry":       func(e *Event) { e.EntryData = "has|pipe" },
		"newline in entry":    func(e *Event) { e.EntryData = "a\nb" },
		"pipe in facility":    func(e *Event) { e.Facility = "a|b" },
		"newline in facility": func(e *Event) { e.Facility = "a\nb" },
	}
	for name, mutate := range cases {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		bad := mkEvent(1, t0)
		mutate(&bad)
		if err := w.Write(&bad); err == nil {
			t.Fatalf("%s: Write accepted invalid event", name)
		}
		// A refusal leaves the Writer as it was: the next record goes on.
		good := mkEvent(2, t0)
		if err := w.Write(&good); err != nil {
			t.Fatalf("%s: Write after a refusal: %v", name, err)
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("%s: Flush: %v", name, err)
		}
		if got, err := NewReader(&buf).ReadAll(); err != nil || len(got) != 1 || got[0] != good || w.Count() != 1 {
			t.Fatalf("%s: wrote %d records (%+v, %v), Count %d; want only the good one", name, len(got), got, err, w.Count())
		}
	}
}

// TestWritersKeepWhatTheyAccepted writes three good records and then
// one each writer refuses: Flush, and WriteFile and WriteWireFile,
// must leave exactly the three.
func TestWritersKeepWhatTheyAccepted(t *testing.T) {
	events := []Event{mkEvent(1, t0), mkEvent(2, t0.Add(time.Second)), mkEvent(3, t0.Add(2*time.Second)), mkEvent(4, t0)}
	events[3].Type = "R|S" // the pipe dialect reserves '|'
	events[3].Location = Location{Kind: KindMidplane, Rack: 1, Midplane: 2}
	type encoder interface {
		Write(*Event) error
		Flush() error
	}
	dir := t.TempDir()
	for _, c := range []struct {
		name  string
		write func(string, []Event) error
		w     func(io.Writer) encoder
	}{
		{"text", WriteFile, func(w io.Writer) encoder { return NewWriter(w) }},
		{"wire", WriteWireFile, func(w io.Writer) encoder { return NewWireWriter(w) }},
	} {
		var buf bytes.Buffer
		w := c.w(&buf)
		for i := range events {
			if err := w.Write(&events[i]); (err != nil) != (i == 3) {
				t.Fatalf("%s: record %d: Write returned %v", c.name, i, err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("%s: Flush: %v", c.name, err)
		}
		path := filepath.Join(dir, c.name)
		if err := c.write(path, events); err == nil {
			t.Fatalf("%s: the file writer took a record its writer refuses", c.name)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file, buf.Bytes()) {
			t.Fatalf("%s: the file holds %d bytes, the three records %d", c.name, len(file), buf.Len())
		}
		got, err := ReadAnyFile(path)
		if err != nil || len(got) != 3 {
			t.Fatalf("%s: read back %d records, %v; want 3", c.name, len(got), err)
		}
		for i := range got {
			if got[i] != events[i] {
				t.Fatalf("%s: record %d read back %+v, want %+v", c.name, i, got[i], events[i])
			}
		}
	}
}

func TestReaderSkipsCommentsAndBlanks(t *testing.T) {
	input := "# header comment\n\n" +
		"1|RAS|2005-01-21 00:00:00|42|R01-M0-N02-C03|KERNEL|FATAL|x\n" +
		"\n# trailing\n"
	got, err := NewReader(strings.NewReader(input)).ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(got) != 1 || got[0].RecID != 1 {
		t.Fatalf("got %v, want single record 1", got)
	}
}

func TestReaderReportsLineNumbers(t *testing.T) {
	input := "1|RAS|2005-01-21 00:00:00|42|R01|KERNEL|FATAL|ok\nnot-a-record\n"
	r := NewReader(strings.NewReader(input))
	if _, err := r.Read(); err != nil {
		t.Fatalf("first record: %v", err)
	}
	_, err := r.Read()
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-numbered error, got %v", err)
	}
}

// TestReaderMixedDialects pins that the pipe spelling is the only one
// the reader takes: an NDJSON line among pipe records is an undecodable
// line under its own number, and the records around it still decode.
func TestReaderMixedDialects(t *testing.T) {
	first, second := mkEvent(1, t0), mkEvent(2, t0.Add(time.Second))
	var pipe bytes.Buffer
	w := NewWriter(&pipe)
	if err := w.Write(&first); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	jsonLine := `{"recid":2,"type":"RAS","time":"2005-01-21 00:00:01","jobid":42,"location":"R01-M0-N02-C03","facility":"KERNEL","severity":"FATAL","entry_data":"x"}`
	stream := pipe.String() + "# comment\n" + jsonLine + "\n"
	pipe.Reset()
	if err := w.Write(&second); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	stream += pipe.String()

	r := NewReader(strings.NewReader(stream))
	if got, err := r.Read(); err != nil || got != first {
		t.Fatalf("record before the NDJSON line: got %+v, %v", got, err)
	}
	_, err := r.Read()
	var le *LineError
	if !errors.As(err, &le) || le.Line != 3 || le.Raw != jsonLine {
		t.Fatalf("NDJSON line: want a *LineError for line 3, got %v", err)
	}
	if got, err := r.Read(); err != nil || got != second {
		t.Fatalf("record after the NDJSON line: got %+v, %v", got, err)
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
}

// TestReaderBadJSONLine pins that a line opening with '{' fails as any
// other line that is not a pipe record does, whatever its JSON holds.
func TestReaderBadJSONLine(t *testing.T) {
	_, want := NewReader(strings.NewReader("not-a-record\n")).Read()
	var wantLE *LineError
	if !errors.As(want, &wantLE) {
		t.Fatalf("non-record line: want a *LineError, got %v", want)
	}
	for _, line := range []string{
		`{"recid": "nope"}`,
		`{"recid": 1, "time": "yesterday"}`,
		`{}`,
	} {
		_, err := NewReader(strings.NewReader(line + "\n")).Read()
		var le *LineError
		if !errors.As(err, &le) || le.Line != 1 || le.Raw != line {
			t.Fatalf("%s: want a *LineError for line 1, got %v", line, err)
		}
		if le.Err.Error() != wantLE.Err.Error() {
			t.Fatalf("%s: cause %v, want the cause a non-record line gets (%v)", line, le.Err, want)
		}
	}
}

func TestReaderMalformedFields(t *testing.T) {
	base := []string{"1", "RAS", "2005-01-21 00:00:00", "42", "R01", "KERNEL", "FATAL", "ok"}
	mutations := []struct {
		name  string
		field int
		value string
	}{
		{"bad recid", 0, "xx"},
		{"bad time", 2, "2005/01/21"},
		{"bad job", 3, "j9"},
		{"bad location", 4, "Z99"},
		{"bad severity", 6, "MEH"},
	}
	for _, m := range mutations {
		fields := append([]string(nil), base...)
		fields[m.field] = m.value
		_, err := NewReader(strings.NewReader(strings.Join(fields, "|"))).Read()
		if err == nil {
			t.Errorf("%s: Read succeeded, want error", m.name)
		}
	}
	if _, err := NewReader(strings.NewReader("a|b|c")).Read(); err == nil {
		t.Error("short line: Read succeeded, want error")
	}
}

func TestReadAtEOF(t *testing.T) {
	r := NewReader(strings.NewReader(""))
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("empty input: err = %v, want io.EOF", err)
	}
}

func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "test.raslog")
	events := []Event{mkEvent(1, t0), mkEvent(2, t0.Add(time.Minute))}
	if err := WriteFile(path, events); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadAnyFile(path)
	if err != nil {
		t.Fatalf("ReadAnyFile: %v", err)
	}
	if len(got) != 2 || got[0] != events[0] || got[1] != events[1] {
		t.Fatalf("file round trip mismatch: %+v", got)
	}
}

func TestSummarize(t *testing.T) {
	events := []Event{
		mkEvent(1, t0.Add(time.Hour)),
		mkEvent(2, t0),
		mkEvent(3, t0.Add(2*time.Hour)),
	}
	events[1].Severity = Info
	s := Summarize(events)
	if s.Records != 3 {
		t.Errorf("Records = %d, want 3", s.Records)
	}
	if !s.Start.Equal(t0) || !s.End.Equal(t0.Add(2*time.Hour)) {
		t.Errorf("span [%v, %v], want [%v, %v]", s.Start, s.End, t0, t0.Add(2*time.Hour))
	}
	if s.Duration() != 2*time.Hour {
		t.Errorf("Duration = %v, want 2h", s.Duration())
	}
	if s.FatalRecs != 2 {
		t.Errorf("FatalRecs = %d, want 2", s.FatalRecs)
	}
	if s.BySev[Info] != 1 || s.BySev[Fatal] != 2 {
		t.Errorf("BySev = %v", s.BySev)
	}
	if s.Bytes <= 0 {
		t.Errorf("Bytes = %d, want > 0", s.Bytes)
	}
}

func TestSummarizeBytesMatchesSerialization(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	events := make([]Event, 200)
	for i := range events {
		events[i] = randomEvent(rng, int64(i))
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := range events {
		if err := w.Write(&events[i]); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	w.Flush()
	if got, want := Summarize(events).Bytes, int64(buf.Len()); got != want {
		t.Fatalf("Summary.Bytes = %d, serialized = %d", got, want)
	}
}

// writeFileString is a test helper shared with the CFDR tests.
func writeFileString(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
