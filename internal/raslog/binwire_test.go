package raslog

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// encodeWire encodes events into wire frames.
func encodeWire(t testing.TB, events []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWireWriter(&buf)
	for i := range events {
		if err := w.Write(&events[i]); err != nil {
			t.Fatalf("wire Write(%d): %v", i, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeWire drains a wire stream, copying events out of the arena.
func decodeWire(t testing.TB, data []byte) []Event {
	t.Helper()
	d := NewWireDecoder(bytes.NewReader(data))
	var out []Event
	for {
		evs, err := d.ReadFrame()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		out = append(out, evs...)
	}
}

func TestWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(91, 92))
	events := append(sortedRandomEvents(rng, 2000), mkEvent(2000, rangeStart), mkEvent(2001, rangeEnd))
	got := decodeWire(t, encodeWire(t, events))
	if len(got) != len(events) {
		t.Fatalf("read %d, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got[i], events[i])
		}
	}
}

func TestWireRoundTripAllLocationKinds(t *testing.T) {
	var events []Event
	for k := KindUnknown; k <= KindServiceCard; k++ {
		e := mkEvent(int64(len(events)+1), t0.Add(time.Duration(len(events))*time.Second))
		e.Location = Location{Kind: k, Rack: 7, Midplane: 1, Card: 3, Chip: 19}
		switch k {
		case KindUnknown:
			e.Location = Location{}
		case KindRack:
			e.Location = Location{Kind: k, Rack: 7}
		case KindMidplane, KindServiceCard:
			e.Location = Location{Kind: k, Rack: 7, Midplane: 1}
		case KindNodeCard, KindLinkCard:
			e.Location = Location{Kind: k, Rack: 7, Midplane: 1, Card: 3}
		}
		events = append(events, e)
	}
	got := decodeWire(t, encodeWire(t, events))
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("kind %v mismatch:\n got %+v\nwant %+v", events[i].Location.Kind, got[i], events[i])
		}
	}
}

// TestWireDecodeZeroAllocs asserts the tentpole property: once warm, a
// pooled decoder re-reading a stream performs zero heap allocations
// per frame — payload buffer, string table and event arena are all
// reused and repeated strings hit the intern map.
func TestWireDecodeZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 102))
	events := sortedRandomEvents(rng, 5000)
	data := encodeWire(t, events)

	var br bytes.Reader
	d := NewWireDecoder(bytes.NewReader(nil))
	run := func() {
		br.Reset(data)
		d.Reset(&br)
		n := 0
		for {
			evs, err := d.ReadFrame()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("ReadFrame: %v", err)
			}
			n += len(evs)
		}
		if n != len(events) {
			t.Fatalf("decoded %d, want %d", n, len(events))
		}
	}
	run() // warm the arena, table and intern map
	if avg := testing.AllocsPerRun(50, run); avg != 0 {
		t.Fatalf("steady-state wire decode allocates %.1f allocs/run, want 0", avg)
	}
}

// TestWireWriterSplitsFrames is the intern-growth regression test:
// streaming well over 2x the per-frame string cap of distinct strings
// must split into multiple frames, keep every frame's table within the
// cap (the decoder rejects violations), and round-trip losslessly.
func TestWireWriterSplitsFrames(t *testing.T) {
	n := 2*wireMaxFrameStrings + 500
	events := make([]Event, n)
	for i := range events {
		e := mkEvent(int64(i+1), t0.Add(time.Duration(i)*time.Second))
		e.EntryData = fmt.Sprintf("distinct entry text %d", i)
		events[i] = e
	}
	data := encodeWire(t, events)

	frames := 0
	sc := NewWireScanner(bytes.NewReader(data))
	for {
		_, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("frame %d: %v", frames, err)
		}
		frames++
	}
	if frames < 3 {
		t.Fatalf("%d distinct strings produced %d frames; table cap not enforced", n, frames)
	}
	got := decodeWire(t, data)
	if len(got) != n {
		t.Fatalf("decoded %d, want %d", len(got), n)
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("record %d mismatch after frame split", i)
		}
	}
}

// TestWireFramePassThrough exercises the splitting property the gate
// relies on: raw records copied out of a frame and re-wrapped with the
// same header decode to the same events.
func TestWireFramePassThrough(t *testing.T) {
	rng := rand.New(rand.NewPCG(111, 112))
	events := sortedRandomEvents(rng, 300)
	data := encodeWire(t, events)

	var rebuilt bytes.Buffer
	sc := NewWireScanner(bytes.NewReader(data))
	for {
		f, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		var payload []byte
		var peeked int
		err = f.Records(func(tag byte, raw, content []byte) error {
			if tag == WireTagEvent {
				loc, at, err := PeekWireEvent(content, f.BaseSec)
				if err != nil {
					return err
				}
				if at.IsZero() || (loc.Kind != KindUnknown && loc.Rack < 0) {
					return fmt.Errorf("implausible peek: %v %v", loc, at)
				}
				peeked++
			}
			payload = append(payload, raw...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if peeked == 0 {
			t.Fatal("frame with no events")
		}
		rebuilt.Write(AppendWireFrameHeader(nil, f.BaseSec, f.BaseRecID, len(payload)))
		rebuilt.Write(payload)
	}
	got := decodeWire(t, rebuilt.Bytes())
	if len(got) != len(events) {
		t.Fatalf("rebuilt stream has %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("record %d drifted through pass-through", i)
		}
	}
}

// TestWireDecoderLenientSkip: a corrupt event record inside an
// otherwise-valid frame is skipped via OnSkip (its length prefix makes
// it skippable); without OnSkip it fails the frame.
func TestWireDecoderLenientSkip(t *testing.T) {
	e1 := mkEvent(1, t0)
	e2 := mkEvent(2, t0.Add(time.Second))
	data := encodeWire(t, []Event{e1, e2})

	sc := NewWireScanner(bytes.NewReader(data))
	f, err := sc.Next()
	if err != nil {
		t.Fatal(err)
	}
	var payload []byte
	injected := false
	err = f.Records(func(tag byte, raw, content []byte) error {
		if tag == WireTagEvent && !injected {
			// A one-byte body with an invalid location kind.
			payload = append(payload, WireTagEvent, 1, 0xEE)
			injected = true
		}
		payload = append(payload, raw...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := AppendWireFrameHeader(nil, f.BaseSec, f.BaseRecID, len(payload))
	corrupt = append(corrupt, payload...)

	d := NewWireDecoder(bytes.NewReader(corrupt))
	skips := 0
	d.OnSkip = func(rec []byte, err error) {
		if err == nil || len(rec) != 1 {
			t.Errorf("OnSkip(%x, %v)", rec, err)
		}
		skips++
	}
	evs, err := d.ReadFrame()
	if err != nil {
		t.Fatalf("lenient decode failed: %v", err)
	}
	if skips != 1 || len(evs) != 2 {
		t.Fatalf("skips=%d events=%d, want 1 and 2", skips, len(evs))
	}
	if evs[0] != e1 || evs[1] != e2 {
		t.Fatal("surviving events drifted")
	}

	strict := NewWireDecoder(bytes.NewReader(corrupt))
	if _, err := strict.ReadFrame(); err == nil {
		t.Fatal("strict decode accepted a corrupt record")
	}
}

// TestWireDecoderRefusesEmptyType: an event whose TYPE index names an
// empty string is one both writers refuse, so the decoder refuses it,
// as the text decoder does.
func TestWireDecoderRefusesEmptyType(t *testing.T) {
	f, err := NewWireScanner(bytes.NewReader(encodeWire(t, []Event{mkEvent(1, t0)}))).Next()
	if err != nil {
		t.Fatal(err)
	}
	var payload, body []byte
	strs := 0
	if err := f.Records(func(tag byte, raw, content []byte) error {
		if tag == WireTagString {
			payload = append(payload, raw...)
			strs++
		} else {
			body = bytes.Clone(content)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	body[len(body)-1] = byte(strs) // the TYPE index, last in the body, names the empty string added below
	payload = append(append(payload, WireTagString, 0, WireTagEvent, byte(len(body))), body...)
	frame := append(AppendWireFrameHeader(nil, f.BaseSec, f.BaseRecID, len(payload)), payload...)
	if evs, err := NewWireDecoder(bytes.NewReader(frame)).ReadFrame(); err == nil || !strings.Contains(err.Error(), "empty event type") {
		t.Fatalf("decoded %+v, error %v; want the empty TYPE refused", evs, err)
	}
}

// TestBrokenFrameKeepsNoArena: the routing decode walks the events
// ahead of a broken frame's break without keeping them, so a pooled
// server decoder holds no event arena however many events a hostile
// frame puts ahead of its break.
func TestBrokenFrameKeepsNoArena(t *testing.T) {
	events := make([]Event, 5000)
	for i := range events {
		events[i] = mkEvent(int64(i), t0)
	}
	f, err := NewWireScanner(bytes.NewReader(encodeWire(t, events))).Next()
	if err != nil {
		t.Fatal(err)
	}
	payload := append(f.Payload, 0x7F) // an unknown tag after the last event
	body := append(AppendWireFrameHeader(nil, f.BaseSec, f.BaseRecID, len(payload)), payload...)
	d := NewWireDecoder(bytes.NewReader(body))
	d.OnSkip = func([]byte, error) {}
	if _, err := d.NextEvent(); !errors.Is(err, errWire) {
		t.Fatalf("NextEvent on a broken frame: %v", err)
	}
	if cap(d.evs) != 0 {
		t.Fatalf("the routing decode grew an arena of %d events", cap(d.evs))
	}
}

// TestWireWriterRejectsInvalid: the writer refuses what the wire cannot
// carry without losing the frame it is building, and carries the pipe
// dialect's reserved characters.
func TestWireWriterRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	w := NewWireWriter(&buf)
	want := []Event{mkEvent(1, t0)}
	if err := w.Write(&want[0]); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*Event){
		"empty type":      func(e *Event) { e.Type = "" },
		"zero time":       func(e *Event) { e.Time = time.Time{} },
		"before 1970":     func(e *Event) { e.Time = beforeRange },
		"after 2262":      func(e *Event) { e.Time = afterRange },
		"bad severity":    func(e *Event) { e.Severity = 42 },
		"long string":     func(e *Event) { e.EntryData = strings.Repeat("x", wireMaxString+1) },
		"rack over range": func(e *Event) { e.Location.Rack = wireMaxLocField + 1 },
		"negative card":   func(e *Event) { e.Location.Card = -1 },
		"no such kind":    func(e *Event) { e.Location.Kind = 99 },
	}
	for name, mutate := range cases {
		bad := mkEvent(2, t0)
		mutate(&bad)
		if err := w.Write(&bad); err == nil {
			t.Fatalf("%s: invalid event accepted", name)
		}
	}
	stray := mkEvent(3, t0)
	stray.EntryData, stray.Facility = "stray|pipe\nand newline", "FAC|X"
	want = append(want, stray)
	if err := w.Write(&stray); err != nil {
		t.Fatalf("reserved text characters refused: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := NewWireDecoder(&buf).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("frame after refusals = %+v, want %+v", got, want)
	}
}

// TestWireAcceptsOutOfOrder pins what the writer's comment promises:
// time and record-id deltas are relative to the frame's base, signed,
// so a record earlier than the one that opened its frame round-trips.
func TestWireAcceptsOutOfOrder(t *testing.T) {
	events := []Event{mkEvent(2, t0.Add(time.Hour)), mkEvent(1, t0)}
	got := decodeWire(t, encodeWire(t, events))
	if len(got) != 2 || got[0] != events[0] || got[1] != events[1] {
		t.Fatalf("out-of-order records drifted:\n got %+v\nwant %+v", got, events)
	}
}

// TestWireStringInterning: strings are stored once per frame, so a
// second record sharing every string with the first costs only its
// fixed fields, not its texts again.
func TestWireStringInterning(t *testing.T) {
	e1 := mkEvent(1, t0)
	e2 := mkEvent(2, t0.Add(time.Second))
	one := len(encodeWire(t, []Event{e1}))
	two := len(encodeWire(t, []Event{e1, e2}))
	if two-one > 20 {
		t.Fatalf("second record sharing all strings cost %d bytes; interning broken", two-one)
	}
}

// TestReadWireRejectsCorruption: a damaged binary log file fails
// with a frame-level wire error rather than reading cleanly, hanging or
// panicking.
func TestReadWireRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewPCG(51, 52))
	data := encodeWire(t, sortedRandomEvents(rng, 50))
	badVersion := append([]byte(nil), data...)
	badVersion[len(wireMagic)] = 0x7f
	cases := []struct {
		name string
		data []byte
	}{
		{"bad-magic", []byte("NOTALOG!")},
		{"short-header", []byte("x")},
		{"bad-version", badVersion},
		{"truncated", data[:len(data)-3]},
		{"unknown-tag", append(AppendWireFrameHeader(nil, t0.Unix(), 1, 1), 0x7f)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := readWire(bytes.NewReader(tc.data)); !errors.Is(err, errWire) {
				t.Fatalf("readWire = %v, want a corrupt-frame error", err)
			}
		})
	}
}

func TestWriteWireFileReadAnyFile(t *testing.T) {
	rng := rand.New(rand.NewPCG(121, 122))
	events := sortedRandomEvents(rng, 300)
	path := t.TempDir() + "/log.wire"
	if err := WriteWireFile(path, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAnyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) || got[0] != events[0] || got[len(got)-1] != events[len(events)-1] {
		t.Fatal("ReadAnyFile did not sniff the wire magic")
	}

	textPath := filepath.Join(t.TempDir(), "log.txt")
	if err := WriteFile(textPath, events); err != nil {
		t.Fatal(err)
	}
	got, err = ReadAnyFile(textPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) || got[len(got)-1] != events[len(events)-1] {
		t.Fatal("text ReadAnyFile mismatch")
	}
}

func TestReadAnyFileTinyTextLog(t *testing.T) {
	// A text log shorter than the sniffed magic must still read.
	path := filepath.Join(t.TempDir(), "tiny.txt")
	if err := WriteFile(path, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAnyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d events from empty log", len(got))
	}
}

// TestReadAnyFileNamesRetiredBinLog: a file in the retired BGLRAS1
// binary format gets an error that names the format, not a text
// parser's line-1 complaint.
func TestReadAnyFileNamesRetiredBinLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.bin")
	if err := os.WriteFile(path, []byte("BGLRAS1\n\x02\x80\x01"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadAnyFile(path)
	if !errors.Is(err, ErrRetiredBinLog) {
		t.Fatalf("ReadAnyFile = %v, want ErrRetiredBinLog", err)
	}
	if !strings.Contains(err.Error(), "BGLRAS1") || !strings.Contains(err.Error(), "-out wire") {
		t.Fatalf("error %q does not name the format and the conversion", err)
	}
}

// TestWireCompactness: the binary log file stays several times smaller
// than the text dialect on repetitive logs.
func TestWireCompactness(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	events := sortedRandomEvents(rng, 5000)
	var text bytes.Buffer
	tw := NewWriter(&text)
	for i := range events {
		if err := tw.Write(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	tw.Flush()
	if wire := encodeWire(t, events); len(wire)*3 > text.Len() {
		t.Fatalf("wire %d bytes vs text %d: want at least 3x smaller", len(wire), text.Len())
	}
}

// sortedRandomEvents yields time-ordered events with realistic
// repetition (shared facilities and entry texts).
func sortedRandomEvents(rng *rand.Rand, n int) []Event {
	events := make([]Event, n)
	for i := range events {
		events[i] = randomEvent(rng, int64(i+1))
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Time.Before(events[j].Time) })
	for i := range events {
		events[i].RecID = int64(i + 1)
	}
	return events
}

func FuzzBinWireDecode(f *testing.F) {
	e1 := mkEvent(1, t0)
	e2 := mkEvent(2, t0.Add(time.Minute))
	var buf bytes.Buffer
	w := NewWireWriter(&buf)
	w.Write(&e1)
	w.Flush()
	w.Write(&e2)
	w.Flush()
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:5])
	f.Add([]byte("BGLW\x01"))
	// Hostile payload length: a huge uvarint must not allocate its
	// claimed size.
	f.Add([]byte("BGLW\x01\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff\x7f"))
	f.Add([]byte{})
	for i := 0; i < len(valid); i += 7 {
		m := append([]byte(nil), valid...)
		m[i] ^= 0x40
		f.Add(m)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewWireDecoder(bytes.NewReader(data))
		d.OnSkip = func([]byte, error) {}
		for i := 0; i < 100000; i++ {
			_, err := d.ReadFrame()
			if err != nil {
				break // io.EOF or a decode error; both fine
			}
		}
		// Over-allocation guard: the chunked reader only grows the
		// payload buffer for bytes that actually arrived, so a lying
		// length prefix cannot balloon memory past the input size plus
		// growth slack.
		if max := 2*len(data) + 2*wireReadChunk; cap(d.payload) > max {
			t.Fatalf("payload buffer grew to %d for %d input bytes", cap(d.payload), len(data))
		}
	})
}
