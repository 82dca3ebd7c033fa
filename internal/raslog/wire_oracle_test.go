package raslog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"
)

// refDecoder is the frame-at-a-time decoder the routing decode
// (NextEvent/DecodeEvent) and the single-pass kernel under ReadFrame
// replaced. Its ReadFrame, refDecodeWireLocation, refDecodeWireEvent and
// refPeekWireEvent are the parent commit's ReadFrame,
// decodeWireLocation, decodeWireEvent and PeekWireEvent verbatim but
// for their names and three rules added since: an event whose time
// int64 nanoseconds since the epoch cannot hold is undecodable, and does
// not peek either; so is a location with a midplane other than 0 or 1,
// which neither writer spells; and an event with an empty TYPE, which
// both writers refuse, is undecodable. It shares readFrameHeader, which
// did not change.
type refDecoder struct{ WireDecoder }

func newRefDecoder(r io.Reader) *refDecoder {
	return &refDecoder{WireDecoder{br: bufio.NewReaderSize(r, 1<<16), intern: make(internTable)}}
}

func (d *refDecoder) ReadFrame() ([]Event, error) {
	baseSec, baseID, err := d.readFrameHeader()
	if err != nil {
		return nil, err
	}
	d.tbl = d.tbl[:0]
	d.evs = d.evs[:0]
	payload := d.payload
	for pos := 0; pos < len(payload); {
		tag := payload[pos]
		pos++
		switch tag {
		case WireTagString:
			n, w := binary.Uvarint(payload[pos:])
			if w <= 0 || n > wireMaxString {
				return nil, wiref("bad string length at %d", pos)
			}
			pos += w
			if pos+int(n) > len(payload) {
				return nil, wiref("string truncated at %d", pos)
			}
			if len(d.tbl) >= wireMaxFrameStrings {
				return nil, wiref("frame exceeds %d strings", wireMaxFrameStrings)
			}
			d.tbl = append(d.tbl, d.intern.get(payload[pos:pos+int(n)]))
			pos += int(n)
		case WireTagEvent:
			n, w := binary.Uvarint(payload[pos:])
			if w <= 0 || n > wireMaxEventBody {
				return nil, wiref("bad event length at %d", pos)
			}
			pos += w
			if pos+int(n) > len(payload) {
				return nil, wiref("event truncated at %d", pos)
			}
			body := payload[pos : pos+int(n)]
			pos += int(n)
			ev, err := refDecodeWireEvent(body, baseSec, baseID, d.tbl)
			if err != nil {
				if d.OnSkip == nil {
					return nil, err
				}
				d.OnSkip(body, err)
				continue
			}
			d.evs = append(d.evs, ev)
		default:
			return nil, wiref("unknown record tag 0x%02x at %d", tag, pos-1)
		}
	}
	return d.evs, nil
}

func refDecodeWireLocation(body []byte) (Location, int, error) {
	if len(body) == 0 {
		return Location{}, 0, wiref("empty event body")
	}
	var loc Location
	loc.Kind = LocationKind(body[0])
	if loc.Kind < KindUnknown || loc.Kind > KindServiceCard {
		return Location{}, 0, wiref("invalid location kind %d", body[0])
	}
	pos := 1
	next := func(dst *int) error {
		v, w := binary.Uvarint(body[pos:])
		if w <= 0 || v > 1<<31 {
			return wiref("bad location field at %d", pos)
		}
		pos += w
		*dst = int(v)
		return nil
	}
	if err := next(&loc.Rack); err != nil {
		return Location{}, 0, err
	}
	fields := 0
	switch loc.Kind {
	case KindMidplane, KindServiceCard:
		fields = 1
	case KindNodeCard, KindLinkCard:
		fields = 2
	case KindComputeChip, KindIONode:
		fields = 3
	}
	dsts := [3]*int{&loc.Midplane, &loc.Card, &loc.Chip}
	for i := 0; i < fields; i++ {
		at := pos
		if err := next(dsts[i]); err != nil {
			return Location{}, 0, err
		}
		if loc.Midplane > 1 {
			return Location{}, 0, wiref("bad location field at %d", at)
		}
	}
	return loc, pos, nil
}

func refDecodeWireEvent(body []byte, baseSec, baseID int64, tbl []string) (Event, error) {
	loc, pos, err := refDecodeWireLocation(body)
	if err != nil {
		return Event{}, err
	}
	var e Event
	e.Location = loc
	varint := func(what string) (int64, error) {
		v, w := binary.Varint(body[pos:])
		if w <= 0 {
			return 0, wiref("bad %s at %d", what, pos)
		}
		pos += w
		return v, nil
	}
	dsec, err := varint("time delta")
	if err != nil {
		return Event{}, err
	}
	if !refTimeInRange(baseSec, dsec) {
		return Event{}, wiref("time %d%+d s out of range", baseSec, dsec)
	}
	e.Time = time.Unix(baseSec+dsec, 0).UTC()
	did, err := varint("rec id delta")
	if err != nil {
		return Event{}, err
	}
	e.RecID = baseID + did
	if e.JobID, err = varint("job id"); err != nil {
		return Event{}, err
	}
	if pos >= len(body) {
		return Event{}, wiref("severity missing")
	}
	e.Severity = Severity(body[pos])
	pos++
	if !e.Severity.Valid() {
		return Event{}, wiref("invalid severity %d", e.Severity)
	}
	str := func(what string) (string, error) {
		v, w := binary.Uvarint(body[pos:])
		if w <= 0 || v >= uint64(len(tbl)) {
			return "", wiref("bad %s index at %d", what, pos)
		}
		pos += w
		return tbl[v], nil
	}
	if e.Facility, err = str("facility"); err != nil {
		return Event{}, err
	}
	if e.EntryData, err = str("entry"); err != nil {
		return Event{}, err
	}
	if e.Type, err = str("type"); err != nil {
		return Event{}, err
	}
	if e.Type == "" {
		return Event{}, wiref("empty event type")
	}
	return e, nil
}

func refPeekWireEvent(body []byte, baseSec int64) (Location, time.Time, error) {
	loc, pos, err := refDecodeWireLocation(body)
	if err != nil {
		return Location{}, time.Time{}, err
	}
	dsec, w := binary.Varint(body[pos:])
	if w <= 0 {
		return Location{}, time.Time{}, wiref("bad time delta at %d", pos)
	}
	if !refTimeInRange(baseSec, dsec) {
		return Location{}, time.Time{}, wiref("time %d%+d s out of range", baseSec, dsec)
	}
	return loc, time.Unix(baseSec+dsec, 0).UTC(), nil
}

// refTimeInRange reports whether baseSec+dsec, summed without wrapping,
// is a whole second from the epoch on that int64 nanoseconds since it
// can hold.
func refTimeInRange(baseSec, dsec int64) bool {
	sum := new(big.Int).Add(big.NewInt(baseSec), big.NewInt(dsec))
	return sum.Sign() >= 0 && sum.Cmp(big.NewInt(math.MaxInt64/int64(time.Second))) <= 0
}

// skipLog records OnSkip calls as (record bytes, error text).
type skipLog []string

func (l *skipLog) hook(rec []byte, err error) { *l = append(*l, fmt.Sprintf("%x: %v", rec, err)) }

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// decodeResult is what one decode of a body produced: the events in
// record order, the OnSkip calls, and the error that ended it.
type decodeResult struct {
	events []Event
	skips  skipLog
	err    string
}

// refDecode drains body through the reference the way serve did: frame
// by frame, lenient, stopping at the first error.
func refDecode(body []byte) decodeResult {
	var res decodeResult
	d := newRefDecoder(bytes.NewReader(body))
	d.OnSkip = res.skips.hook
	for {
		evs, err := d.ReadFrame()
		if err != nil {
			res.err = errText(err)
			return res
		}
		res.events = append(res.events, evs...)
	}
}

// routeBatchCap is serve's wireBatchCap, the batch capacity its
// ingest loop pauses the routing decode at.
const routeBatchCap = 4096

// routeDecode drives the routing decode the way serve's ingest loop
// does: each event decodes in place at the end of its route's batch,
// and a batch that reaches batchCap is handed off — copied out, then
// its buffer reused for the next batch, so an event that still aliased
// decoder state or an old batch would show. NextEvent's location must
// be the one DecodeEvent writes, before and after it runs. It returns
// the events in record order.
func routeDecode(d *WireDecoder, body []byte, routes, batchCap int) decodeResult {
	var res decodeResult
	d.Reset(bytes.NewReader(body))
	d.OnSkip = res.skips.hook
	batches := make([][]Event, routes)
	for i := range batches {
		batches[i] = make([]Event, 0, batchCap)
	}
	var order []int // each decoded event's route, in record order
	perRoute := make([][]Event, routes)
	handOff := func(r int) {
		perRoute[r] = append(perRoute[r], batches[r]...)
		for i := range batches[r] {
			batches[r][i] = Event{RecID: -1} // poison the reused buffer
		}
		batches[r] = batches[r][:0]
	}
	for {
		loc, err := d.NextEvent()
		if err != nil {
			res.err = errText(err)
			break
		}
		said := *loc
		r := int(uint(loc.Rack*2+loc.Midplane) % uint(routes))
		b := batches[r]
		n := len(b)
		slot := &b[:n+1][n]
		*slot = Event{RecID: -1, Location: Location{Kind: KindIONode, Rack: 77, Midplane: 77, Card: 77, Chip: 77}} // poison
		if d.DecodeEvent(slot) != nil {
			continue
		}
		if slot.Location != said || *loc != said {
			res.err = fmt.Sprintf("NextEvent said %+v, DecodeEvent %+v, and the pointer holds %+v after it", said, slot.Location, *loc)
			break
		}
		batches[r] = b[:n+1]
		order = append(order, r)
		if n+1 == batchCap {
			handOff(r)
		}
	}
	for r := range batches {
		handOff(r)
	}
	next := make([]int, routes)
	for _, r := range order {
		res.events = append(res.events, perRoute[r][next[r]])
		next[r]++
	}
	return res
}

func (got decodeResult) mustEqual(t testing.TB, want decodeResult, what string) {
	t.Helper()
	if got.err != want.err {
		t.Fatalf("%s: error %q, reference %q", what, got.err, want.err)
	}
	if !reflect.DeepEqual(got.skips, want.skips) {
		t.Fatalf("%s: OnSkip calls\n%q\nreference\n%q", what, got.skips, want.skips)
	}
	if len(got.events) != len(want.events) {
		t.Fatalf("%s: %d events, reference %d", what, len(got.events), len(want.events))
	}
	for i := range want.events {
		if got.events[i] != want.events[i] {
			t.Fatalf("%s: event %d\n got %+v\nwant %+v", what, i, got.events[i], want.events[i])
		}
	}
}

// readFrameCalls runs ReadFrame until io.EOF (or a bound) and logs each
// call's events and error, for the strict and the lenient mode.
func readFrameCalls(body []byte, lenient bool, readFrame func(io.Reader, func([]byte, error)) func() ([]Event, error)) []string {
	var log skipLog
	var hook func([]byte, error)
	if lenient {
		hook = log.hook
	}
	next := readFrame(bytes.NewReader(body), hook)
	var calls []string
	for i := 0; i < 64; i++ {
		evs, err := next()
		calls = append(calls, fmt.Sprintf("%v %d %s", evs, len(log), errText(err)))
		if errors.Is(err, io.EOF) {
			break
		}
	}
	return append(calls, log...)
}

func newReadFrame(r io.Reader, onSkip func([]byte, error)) func() ([]Event, error) {
	d := NewWireDecoder(r)
	d.OnSkip = onSkip
	return d.ReadFrame
}

func refReadFrame(r io.Reader, onSkip func([]byte, error)) func() ([]Event, error) {
	d := newRefDecoder(r)
	d.OnSkip = onSkip
	return d.ReadFrame
}

// checkAgainstReference holds every decode path of body to the
// reference: the routing decode over one and three routes pausing at
// batchCap, ReadFrame strict and lenient call by call, and
// PeekWireEvent on every event record of every frame the scanner
// reaches.
func checkAgainstReference(t testing.TB, body []byte, batchCap int) {
	t.Helper()
	want := refDecode(body)
	d := NewWireDecoder(nil)
	for _, routes := range []int{1, 3} {
		routeDecode(d, body, routes, batchCap).mustEqual(t, want, fmt.Sprintf("routing decode over %d routes", routes))
	}
	for _, lenient := range []bool{false, true} {
		got, ref := readFrameCalls(body, lenient, newReadFrame), readFrameCalls(body, lenient, refReadFrame)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("ReadFrame (lenient=%v) calls\n%q\nreference\n%q", lenient, got, ref)
		}
	}
	sc := NewWireScanner(bytes.NewReader(body))
	for {
		f, err := sc.Next()
		if err != nil {
			break
		}
		_ = f.Records(func(tag byte, _, content []byte) error {
			if tag != WireTagEvent {
				return nil
			}
			loc, at, err := PeekWireEvent(content, f.BaseSec)
			rloc, rat, rerr := refPeekWireEvent(content, f.BaseSec)
			if loc != rloc || at != rat || errText(err) != errText(rerr) {
				t.Fatalf("PeekWireEvent(%x) = %v %v %v, reference %v %v %v", content, loc, at, err, rloc, rat, rerr)
			}
			return nil
		})
	}
}

// rewriteFrame re-emits a one-frame body with fn deciding, per record,
// the raw bytes that replace it (nil drops it).
func rewriteFrame(t testing.TB, body []byte, fn func(i int, tag byte, raw []byte) []byte) []byte {
	t.Helper()
	f, err := NewWireScanner(bytes.NewReader(body)).Next()
	if err != nil {
		t.Fatal(err)
	}
	var payload []byte
	i := 0
	if err := f.Records(func(tag byte, raw, _ []byte) error {
		payload = append(payload, fn(i, tag, raw)...)
		i++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return append(AppendWireFrameHeader(nil, f.BaseSec, f.BaseRecID, len(payload)), payload...)
}

// rebaseFrame re-emits a one-frame body under the header time baseSec,
// giving its event records the time deltas dsecs in turn (the last one
// repeats).
func rebaseFrame(t testing.TB, body []byte, baseSec int64, dsecs ...int64) []byte {
	t.Helper()
	f, err := NewWireScanner(bytes.NewReader(body)).Next()
	if err != nil {
		t.Fatal(err)
	}
	var payload []byte
	k := 0
	if err := f.Records(func(tag byte, raw, content []byte) error {
		if tag != WireTagEvent {
			payload = append(payload, raw...)
			return nil
		}
		var loc Location
		pos, err := decodeWireLocation(content, &loc)
		if err != nil {
			return err
		}
		_, w := binary.Varint(content[pos:])
		ev := binary.AppendVarint(append([]byte(nil), content[:pos]...), dsecs[min(k, len(dsecs)-1)])
		ev = append(ev, content[pos+w:]...)
		payload = append(binary.AppendUvarint(append(payload, tag), uint64(len(ev))), ev...)
		k++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return append(AppendWireFrameHeader(nil, baseSec, f.BaseRecID, len(payload)), payload...)
}

// timeEdgeFrames are frames at the int64 ends and at the epoch whose
// time deltas bring some events into range, put others a second past
// its ends, and make others' sums wrap: MaxInt64 + MaxInt64 wraps to -2
// and MinInt64 + MinInt64 to 0, the epoch, a time that looks valid and
// must be refused.
func timeEdgeFrames(t testing.TB, body []byte) []byte {
	t.Helper()
	hi := rebaseFrame(t, body, math.MaxInt64, math.MaxInt64, 0, -math.MaxInt64, maxSec-math.MaxInt64, maxSec-math.MaxInt64+1, math.MinInt64, -1)
	lo := rebaseFrame(t, body, math.MinInt64, math.MinInt64, -1, math.MaxInt64, 1, 0)
	epoch := rebaseFrame(t, body, 0, 0, -1, maxSec, maxSec+1, math.MinInt64, math.MaxInt64)
	return append(append(hi, lo...), epoch...)
}

// wireFrames encodes events as one frame per chunk of size n.
func wireFrames(t testing.TB, events []Event, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWireWriter(&buf)
	for i := range events {
		if i > 0 && i%n == 0 {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Write(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWireRouteDecodeMatchesReference covers the shapes the routing
// decode must not change: multi-frame bodies, a 20 000-record frame
// that pauses at the batch cap mid-frame, corrupt records at and around
// a pause, a corrupt location, strings added mid-frame, frames whose
// framing breaks after corrupt records, and truncation.
func TestWireRouteDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(131, 132))
	events := sortedRandomEvents(rng, 20000)
	big := encodeWire(t, events)
	sc := NewWireScanner(bytes.NewReader(big))
	if _, err := sc.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Next(); err != io.EOF {
		t.Fatalf("the 20 000-record body must be a single frame (second Next: %v)", err)
	}
	evil := []byte{WireTagEvent, 1, 0xEE}           // invalid location kind
	noSev := []byte{WireTagEvent, 5, 0, 0, 0, 0, 0} // location and deltas decode, severity missing
	// eventIdx rewrites the k-th event record of a frame.
	eventIdx := func(fn func(k int, raw []byte) []byte) func(int, byte, []byte) []byte {
		k := -1
		return func(_ int, tag byte, raw []byte) []byte {
			if tag != WireTagEvent {
				return raw
			}
			k++
			return fn(k, raw)
		}
	}
	cases := map[string][]byte{
		"multi-frame":                           wireFrames(t, events[:9000], 1000),
		"one frame of 20000, pausing mid-frame": big,
		// On one route, the records that would have filled the first
		// batch are corrupt, so it fills at event 4098 instead and the
		// record right after that pause is corrupt too.
		"corrupt records at the pause": rewriteFrame(t, big, eventIdx(func(k int, raw []byte) []byte {
			switch k {
			case routeBatchCap - 1, routeBatchCap, routeBatchCap + 3:
				return evil
			case routeBatchCap + 1:
				return noSev
			}
			return raw
		})),
		"string add mid-frame referenced early": rewriteFrame(t, encodeWire(t, events[:50]), func(i int, tag byte, raw []byte) []byte {
			if i == 0 && tag == WireTagString {
				return nil // the first event's facility index now points past the table
			}
			return raw
		}),
		"framing breaks after corrupt records": func() []byte {
			b := rewriteFrame(t, encodeWire(t, events[:40]), eventIdx(func(k int, raw []byte) []byte {
				switch k {
				case 3:
					return evil
				case 30:
					return []byte{0x7F} // unknown tag: the frame breaks here
				}
				return raw
			}))
			return append(encodeWire(t, events[40:60]), append(b, encodeWire(t, events[60:80])...)...)
		}(),
		"header times at the int64 ends": timeEdgeFrames(t, encodeWire(t, events[:12])),
		"truncated frame": func() []byte {
			b := wireFrames(t, events[:3000], 1000)
			return b[:len(b)-len(b)/5]
		}(),
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) { checkAgainstReference(t, body, routeBatchCap) })
	}
}

// FuzzWireRouteDecode is the routing decode's differential target: on
// any body, the same events in the same record order, the same OnSkip
// calls (bytes and error text) and the same terminating error as the
// reference, for every decode path (see checkAgainstReference). Its
// batches hold three events, so small bodies pause mid-frame too.
func FuzzWireRouteDecode(f *testing.F) {
	rng := rand.New(rand.NewPCG(141, 142))
	events := sortedRandomEvents(rng, 40)
	valid := wireFrames(f, events, 15)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(timeEdgeFrames(f, wireFrames(f, events[:10], 10)))
	f.Add([]byte("BGLW\x01"))
	f.Add([]byte{})
	for i := 0; i < len(valid); i += 11 {
		m := append([]byte(nil), valid...)
		m[i] ^= 0x21
		f.Add(m)
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkAgainstReference(t, body, 3) })
}

// TestWireRouteDecodeZeroAllocs: once warm, the routing decode places a
// body's events into reused batches without a heap allocation.
func TestWireRouteDecodeZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(151, 152))
	body := wireFrames(t, sortedRandomEvents(rng, 10000), 3000)
	var batches [2][]Event
	for i := range batches {
		batches[i] = make([]Event, 0, routeBatchCap)
	}
	var br bytes.Reader
	d := NewWireDecoder(nil)
	run := func() {
		br.Reset(body)
		d.Reset(&br)
		for {
			loc, err := d.NextEvent()
			if err != nil {
				if err != io.EOF {
					t.Fatal(err)
				}
				return
			}
			b := &batches[loc.Rack%2]
			n := len(*b)
			if d.DecodeEvent(&(*b)[:n+1][n]) != nil {
				t.Fatal("valid record failed to decode")
			}
			if *b = (*b)[:n+1]; n+1 == routeBatchCap {
				*b = (*b)[:0]
			}
		}
	}
	run()
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Fatalf("steady-state routing decode allocates %.1f allocs/run, want 0", avg)
	}
}
