package raslog

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"testing"
)

// recordSource is the two-step decode both decoders offer.
type recordSource interface {
	NextEvent() (*Location, error)
	DecodeEvent(*Event) error
}

// contractChunk is how many good records precede each corrupt one in
// the NextEvent contract bodies.
const contractChunk = 6

// strayLocation is the location a corrupt record decodes before its
// corruption shows; no good record of the contract bodies has it.
var strayLocation = Location{Kind: KindMidplane, Rack: 99, Midplane: 1}

// contractWire encodes events as one frame per contractChunk, each
// ended by a corrupt event record: on odd frames its location kind is
// invalid, on even ones its location decodes and its severity does not.
func contractWire(t *testing.T, events []Event) []byte {
	t.Helper()
	var body []byte
	for c := 0; c*contractChunk < len(events); c++ {
		f, err := NewWireScanner(bytes.NewReader(wireFrames(t, events[c*contractChunk:(c+1)*contractChunk], contractChunk))).Next()
		if err != nil {
			t.Fatal(err)
		}
		bad := []byte{0xEE}
		if c%2 == 0 {
			bad = []byte{byte(strayLocation.Kind), byte(strayLocation.Rack), byte(strayLocation.Midplane), 0, 0, 0, 0xFF}
		}
		payload := append(append(bytes.Clone(f.Payload), WireTagEvent, byte(len(bad))), bad...)
		body = append(AppendWireFrameHeader(body, f.BaseSec, f.BaseRecID, len(payload)), payload...)
	}
	return body
}

// contractText writes events as pipe lines, contractChunk at a time,
// each chunk followed by an undecodable line: on odd chunks garbage, on
// even ones a line whose location scans and whose severity does not.
func contractText(t *testing.T, events []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for c := 0; c*contractChunk < len(events); c++ {
		for i := range events[c*contractChunk : (c+1)*contractChunk] {
			if err := w.Write(&events[c*contractChunk+i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if c%2 == 1 {
			buf.WriteString("garbage\n")
			continue
		}
		e := events[0]
		fmt.Fprintf(&buf, "%d|%s|%s|%d|%s|%s|BOGUS|%s\n", e.RecID, e.Type, e.Time.Format(timeLayout), e.JobID,
			strayLocation.AppendTo(nil), e.Facility, e.EntryData)
	}
	return buf.Bytes()
}

// TestNextEventLocationContract holds both decoders, strict and lenient,
// to NextEvent's contract: the *Location it returns is the location
// DecodeEvent writes, it still holds that location after DecodeEvent,
// and a record skipped between two good ones — one whose location does
// not decode, or one whose location decodes and whose rest does not —
// never leaves its location behind.
func TestNextEventLocationContract(t *testing.T) {
	rng := rand.New(rand.NewPCG(161, 162))
	events := sortedRandomEvents(rng, 10*contractChunk)
	for i := range events {
		if events[i].Location == strayLocation {
			events[i].Location.Rack = 98
		}
	}
	wire, text := contractWire(t, events), contractText(t, events)
	for _, lenient := range []bool{false, true} {
		skips := 0
		d := NewWireDecoder(bytes.NewReader(wire))
		rd := NewReader(bytes.NewReader(text))
		if lenient {
			d.OnSkip = func([]byte, error) { skips++ }
			rd.Lenient(func(LineError) { skips++ })
		}
		for name, src := range map[string]recordSource{"WireDecoder": d, "Reader": rd} {
			t.Run(fmt.Sprintf("%s/lenient=%v", name, lenient), func(t *testing.T) {
				skips = 0
				got, refused := walkContract(t, src)
				if len(got) != len(events) {
					t.Fatalf("decoded %d events, want %d", len(got), len(events))
				}
				for i := range events {
					if got[i].RecID != events[i].RecID || got[i].Location != events[i].Location {
						t.Fatalf("event %d: rec %d at %+v, want rec %d at %+v", i, got[i].RecID, got[i].Location, events[i].RecID, events[i].Location)
					}
				}
				corrupt := len(events) / contractChunk
				if !lenient && (refused != corrupt || skips != 0) {
					t.Fatalf("strict decode refused %d records and skipped %d, want %d and 0", refused, skips, corrupt)
				}
				if lenient && skips != corrupt {
					t.Fatalf("lenient decode skipped %d records, want %d", skips, corrupt)
				}
			})
		}
	}
}

// walkContract drains src two steps at a time, going on past a strict
// decoder's per-record errors, into slots poisoned before each decode.
// It returns the events and how many records either step refused.
func walkContract(t *testing.T, src recordSource) (got []Event, refused int) {
	t.Helper()
	poison := Location{Kind: KindIONode, Rack: 77, Midplane: 77, Card: 77, Chip: 77}
	for calls := 0; calls < 1000; calls++ {
		loc, err := src.NextEvent()
		if err == io.EOF {
			return got, refused
		}
		if err != nil {
			refused++ // a strict decoder's corrupt record; the stream goes on
			continue
		}
		said := *loc
		ev := Event{RecID: -1, Location: poison}
		if src.DecodeEvent(&ev) != nil {
			refused++
			continue
		}
		if ev.Location != said || *loc != said {
			t.Fatalf("NextEvent said %+v, DecodeEvent wrote %+v, and the pointer holds %+v after it", said, ev.Location, *loc)
		}
		got = append(got, ev)
	}
	t.Fatal("decode did not end")
	return nil, 0
}
