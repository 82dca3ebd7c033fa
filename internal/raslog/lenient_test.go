package raslog

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"strings"
	"testing"
)

// interleavedGarbage renders n valid records with garbage lines
// spliced in at the given 1-based line numbers.
func interleavedGarbage(t *testing.T, n int, garbageAt map[int]string) (string, []Event) {
	t.Helper()
	rng := rand.New(rand.NewPCG(7, 8))
	events := make([]Event, n)
	for i := range events {
		events[i] = randomEvent(rng, int64(i))
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	line := 0
	var out bytes.Buffer
	for i := range events {
		line++
		for g, ok := garbageAt[line]; ok; g, ok = garbageAt[line] {
			out.WriteString(g + "\n")
			line++
		}
		buf.Reset()
		if err := w.Write(&events[i]); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		out.Write(buf.Bytes())
	}
	line++
	if g, ok := garbageAt[line]; ok {
		out.WriteString(g + "\n")
	}
	return out.String(), events
}

func TestLenientReaderSkipsGarbage(t *testing.T) {
	garbage := map[int]string{
		1: "<<< log rotated >>>", // a leading '#' would count as a comment

		4: "this|has|too|few|fields",
		7: "0|RAS|not-a-time|0|R00-M0|KERNEL|INFO|x",
		// NDJSON is no spelling the reader takes: an object is garbage.
		9: `{"recid":3,"type":"RAS","time":"2005-01-21 00:00:00","jobid":1,"location":"R00-M0","facility":"KERNEL","severity":"INFO","entry_data":"x"}`,
	}
	input, events := interleavedGarbage(t, 5, garbage)

	var seen []LineError
	r := NewReader(strings.NewReader(input)).Lenient(func(le LineError) {
		seen = append(seen, le)
	})
	got, err := r.ReadAll()
	if err != nil {
		t.Fatalf("lenient ReadAll: %v", err)
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d records, want %d around the garbage", len(got), len(events))
	}
	for i := range got {
		if got[i].RecID != events[i].RecID || !got[i].Time.Equal(events[i].Time) {
			t.Fatalf("record %d mangled by lenient mode: %+v", i, got[i])
		}
	}
	if r.SkippedLines() != int64(len(garbage)) {
		t.Fatalf("SkippedLines = %d, want %d", r.SkippedLines(), len(garbage))
	}
	if len(seen) != len(garbage) {
		t.Fatalf("onSkip saw %d lines, want %d", len(seen), len(garbage))
	}
	for _, le := range seen {
		want, ok := garbage[int(le.Line)]
		if !ok {
			t.Fatalf("skipped line %d was not a garbage line", le.Line)
		}
		if le.Raw != want {
			t.Fatalf("line %d raw = %q, want %q", le.Line, le.Raw, want)
		}
		if le.Err == nil {
			t.Fatalf("line %d has no cause", le.Line)
		}
	}
}

func TestStrictReaderStillFailsWithLineError(t *testing.T) {
	input, _ := interleavedGarbage(t, 3, map[int]string{2: "garbage"})
	r := NewReader(strings.NewReader(input))
	if _, err := r.Read(); err != nil {
		t.Fatalf("line 1 is valid: %v", err)
	}
	_, err := r.Read()
	if err == nil {
		t.Fatal("strict reader accepted garbage")
	}
	var le *LineError
	if !errors.As(err, &le) {
		t.Fatalf("strict error %T does not unwrap to *LineError", err)
	}
	if le.Line != 2 || le.Raw != "garbage" {
		t.Fatalf("LineError = %+v, want line 2 %q", le, "garbage")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error %q lost the line number", err)
	}
}
