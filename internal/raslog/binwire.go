package raslog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"time"
)

// Wire format. The binary *file* format (binlog.go) interns strings
// cumulatively and delta-encodes each record against the previous one,
// which makes a stream unsplittable: drop or reroute one record and
// every later delta is wrong. The wire format trades a few bytes per
// frame for exactly the properties a routing gate needs:
//
//	frame:  "BGLW" magic (4 bytes)
//	        version byte (0x01)
//	        varint  baseSec   (unix seconds; per-event times are
//	                           deltas from this, not from each other)
//	        varint  baseRecID (per-event rec ids likewise)
//	        uvarint payloadLen
//	        payload of records
//	record: tag byte
//	          0x01 = string-table add: uvarint len + bytes
//	          0x02 = event: uvarint bodyLen + body
//	body:   byte    location kind
//	        uvarint rack; then per kind: midplane/card/chip
//	        varint  time delta seconds from baseSec
//	        varint  rec id delta from baseRecID
//	        varint  job id
//	        byte    severity
//	        uvarint facility string index
//	        uvarint entry-data string index
//	        uvarint type string index
//
// The string table is scoped to one frame and capped (a week-long
// ingest connection cannot grow decoder memory without bound), every
// event body is length-prefixed (a corrupt record is skippable, and a
// gate can copy its raw bytes without decoding it), and the location
// comes first (a gate peeks the routing key and forwards the rest
// untouched). Because deltas are frame-relative, any subsequence of a
// frame's events — prefixed with the string-add records their indices
// require and the same frame header — is itself a valid frame: that is
// the splitting property the gate's peek-and-forward path relies on.

// WireContentType is the Content-Type negotiating the binary wire
// format on POST /v1/ingest. Anything else is read as text/NDJSON.
const WireContentType = "application/x-bglbin"

const (
	wireMagic   = "BGLW"
	wireVersion = 0x01

	// wireMaxFrameStrings caps one frame's string table; the writer
	// splits frames to respect it and the decoder rejects frames beyond
	// it. Together with payload chunked reads this bounds decoder
	// memory per connection regardless of stream length.
	wireMaxFrameStrings = 4096
	// wireMaxPayload caps one frame's payload length.
	wireMaxPayload = 1 << 24
	// wireFlushPayload is the writer's auto-split threshold.
	wireFlushPayload = 1 << 20
	// wireMaxString caps one interned string, as in the file format.
	wireMaxString = 1 << 20
	// wireMaxEventBody caps one event record's body.
	wireMaxEventBody = 1 << 16
	// wireInternCap caps the decoder's cross-frame intern map (distinct
	// strings kept alive for zero-alloc re-reads; beyond it, strings
	// still decode, they just allocate).
	wireInternCap = 1 << 14
	// wireInternMaxLen caps the length of a string the intern map keeps,
	// so a pooled decoder retains at most wireInternCap × this (16 MiB)
	// however hostile its past inputs were. Real RAS strings are tens
	// of bytes.
	wireInternMaxLen = 1 << 10
	// wireReadChunk is the unit payload bytes are read in, so a frame
	// header lying about its length cannot make the decoder allocate
	// more than the bytes that actually arrive.
	wireReadChunk = 64 << 10
)

// Record tags within a wire frame payload. Exported so pass-through
// routers (the cluster gate) can classify records in WireFrame.Records
// callbacks without decoding event bodies.
const (
	WireTagString byte = 0x01 // string-table add: uvarint len + bytes
	WireTagEvent  byte = 0x02 // event record: uvarint bodyLen + body
)

// WireWriter encodes events into a stream of wire frames. Frames are
// cut automatically at the string-table cap and the payload threshold;
// Flush emits the pending frame. Unlike the file BinWriter it does not
// require time order (deltas are base-relative), though producers that
// feed engines should still send log order.
type WireWriter struct {
	w       io.Writer
	payload []byte
	body    []byte
	head    []byte
	strings map[string]uint64
	nstr    uint64
	baseSec int64
	baseID  int64
	n       int   // events in the pending frame
	count   int64 // lifetime events written
	err     error
}

// NewWireWriter returns a writer emitting frames to w.
func NewWireWriter(w io.Writer) *WireWriter {
	return &WireWriter{w: w, strings: make(map[string]uint64)}
}

// missing reports how many distinct strings of the event's three are
// not yet in the pending frame's table.
func (w *WireWriter) missing(e *Event) uint64 {
	var seen [3]string
	var m uint64
	for _, s := range [3]string{e.Facility, e.EntryData, e.Type} {
		if _, ok := w.strings[s]; ok {
			continue
		}
		dup := false
		for i := uint64(0); i < m; i++ {
			if seen[i] == s {
				dup = true
				break
			}
		}
		if !dup {
			seen[m] = s
			m++
		}
	}
	return m
}

// intern returns the frame-local string index, emitting an add record
// the first time the string appears in this frame.
func (w *WireWriter) intern(s string) uint64 {
	if idx, ok := w.strings[s]; ok {
		return idx
	}
	w.payload = append(w.payload, WireTagString)
	w.payload = binary.AppendUvarint(w.payload, uint64(len(s)))
	w.payload = append(w.payload, s...)
	idx := w.nstr
	w.strings[s] = idx
	w.nstr++
	return idx
}

// Write appends one event, opening or splitting frames as needed.
func (w *WireWriter) Write(e *Event) error {
	if w.err != nil {
		return w.err
	}
	if err := e.Validate(); err != nil {
		w.err = err
		return err
	}
	if len(e.Facility) > wireMaxString || len(e.EntryData) > wireMaxString || len(e.Type) > wireMaxString {
		w.err = fmt.Errorf("raslog: wire string over %d bytes", wireMaxString)
		return w.err
	}
	if w.n > 0 && (w.nstr+w.missing(e) > wireMaxFrameStrings || len(w.payload) >= wireFlushPayload) {
		if err := w.Flush(); err != nil {
			return err
		}
	}
	if w.n == 0 {
		w.baseSec = e.Time.Unix()
		w.baseID = e.RecID
	}
	facIdx := w.intern(e.Facility)
	entryIdx := w.intern(e.EntryData)
	typeIdx := w.intern(e.Type)

	b := w.body[:0]
	b = append(b, byte(e.Location.Kind))
	b = binary.AppendUvarint(b, uint64(e.Location.Rack))
	switch e.Location.Kind {
	case KindMidplane, KindServiceCard:
		b = binary.AppendUvarint(b, uint64(e.Location.Midplane))
	case KindNodeCard, KindLinkCard:
		b = binary.AppendUvarint(b, uint64(e.Location.Midplane))
		b = binary.AppendUvarint(b, uint64(e.Location.Card))
	case KindComputeChip, KindIONode:
		b = binary.AppendUvarint(b, uint64(e.Location.Midplane))
		b = binary.AppendUvarint(b, uint64(e.Location.Card))
		b = binary.AppendUvarint(b, uint64(e.Location.Chip))
	}
	b = binary.AppendVarint(b, e.Time.Unix()-w.baseSec)
	b = binary.AppendVarint(b, e.RecID-w.baseID)
	b = binary.AppendVarint(b, e.JobID)
	b = append(b, byte(e.Severity))
	b = binary.AppendUvarint(b, facIdx)
	b = binary.AppendUvarint(b, entryIdx)
	b = binary.AppendUvarint(b, typeIdx)
	w.body = b

	w.payload = append(w.payload, WireTagEvent)
	w.payload = binary.AppendUvarint(w.payload, uint64(len(b)))
	w.payload = append(w.payload, b...)
	w.n++
	w.count++
	return nil
}

// Flush emits the pending frame, if any, and resets the per-frame
// string table — the bounded-memory rule the wire format is built
// around.
func (w *WireWriter) Flush() error {
	if w.err != nil {
		return w.err
	}
	if w.n == 0 {
		return nil
	}
	w.head = AppendWireFrameHeader(w.head[:0], w.baseSec, w.baseID, len(w.payload))
	if _, err := w.w.Write(w.head); err != nil {
		w.err = err
		return err
	}
	if _, err := w.w.Write(w.payload); err != nil {
		w.err = err
		return err
	}
	w.payload = w.payload[:0]
	clear(w.strings)
	w.nstr = 0
	w.n = 0
	return nil
}

// Count returns the lifetime number of events written.
func (w *WireWriter) Count() int64 { return w.count }

// AppendWireFrameHeader appends a wire frame header for a payload of
// payloadLen bytes. The gate's pass-through path uses it to stamp the
// source frame's bases onto the per-owner sub-frames it assembles from
// raw record bytes.
func AppendWireFrameHeader(dst []byte, baseSec, baseRecID int64, payloadLen int) []byte {
	dst = append(dst, wireMagic...)
	dst = append(dst, wireVersion)
	dst = binary.AppendVarint(dst, baseSec)
	dst = binary.AppendVarint(dst, baseRecID)
	dst = binary.AppendUvarint(dst, uint64(payloadLen))
	return dst
}

// WireDecoder decodes a stream of wire frames with zero steady-state
// allocations: the payload buffer, the per-frame string table and the
// event arena are all reused across frames, and repeated strings
// resolve through a capped intern map without copying. It is intended
// to be pooled (sync.Pool) and re-armed per connection with Reset.
type WireDecoder struct {
	br      *bufio.Reader
	head    [5]byte
	payload []byte
	tbl     []string
	evs     []Event
	intern  internTable

	// OnSkip, when set, makes event-record decode failures non-fatal:
	// the bad record is skipped (its length prefix tells the decoder
	// where the next one starts) and handed to the callback. Frame-level
	// corruption — bad magic, a broken string table, truncation — still
	// fails ReadFrame, since nothing after it is trustworthy.
	OnSkip func(rec []byte, err error)
}

// internTable resolves the strings a decoder sees over and over —
// event types, facilities, entry texts — to one shared copy each, so
// a warm decoder materializes none. It holds at most wireInternCap
// strings of at most wireInternMaxLen bytes; anything past either
// bound still decodes, as a fresh copy.
type internTable map[string]string

func (t internTable) get(b []byte) string {
	s, ok := t[string(b)] // no allocation on the hit path
	if !ok {
		//bglvet:ignore hotpathalloc intern-miss copy; the table amortizes it to zero on the steady-state path the AllocsPerRun tests pin
		s = string(b)
		if len(t) < wireInternCap && len(s) <= wireInternMaxLen {
			t[s] = s
		}
	}
	return s
}

// NewWireDecoder returns a decoder reading frames from r.
func NewWireDecoder(r io.Reader) *WireDecoder {
	d := &WireDecoder{
		br:     bufio.NewReaderSize(r, 1<<16),
		intern: make(internTable),
	}
	return d
}

// Reset re-arms the decoder for a new stream, keeping its buffers and
// intern map — the pooling hook.
func (d *WireDecoder) Reset(r io.Reader) {
	d.br.Reset(r)
	d.OnSkip = nil
}

// errWire marks frame-level wire corruption.
var errWire = errors.New("raslog: corrupt wire frame")

func wiref(format string, args ...any) error {
	//bglvet:ignore hotpathalloc error construction runs only on corrupt frames, which abort the decode
	return fmt.Errorf("%w: %s", errWire, fmt.Sprintf(format, args...))
}

// ReadFrame decodes the next frame and returns its events. The slice
// (and the events' strings) is only valid until the next ReadFrame —
// callers that retain events must copy them out. io.EOF is returned at
// a clean frame boundary.
//
//bglvet:hotpath
func (d *WireDecoder) ReadFrame() ([]Event, error) {
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
			ev, err := decodeWireEvent(body, baseSec, baseID, d.tbl)
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

// readFrameHeader reads one frame header and fills d.payload with the
// frame's records, reading in bounded chunks so a hostile length
// prefix cannot force a large allocation.
func (d *WireDecoder) readFrameHeader() (baseSec, baseID int64, err error) {
	if _, err := io.ReadFull(d.br, d.head[:]); err != nil {
		if err == io.EOF {
			return 0, 0, io.EOF // clean end between frames
		}
		return 0, 0, wiref("header: %v", err)
	}
	if string(d.head[:4]) != wireMagic {
		return 0, 0, wiref("bad magic %q", d.head[:4])
	}
	if d.head[4] != wireVersion {
		return 0, 0, wiref("unsupported version 0x%02x", d.head[4])
	}
	if baseSec, err = binary.ReadVarint(d.br); err != nil {
		return 0, 0, wiref("base time: %v", err)
	}
	if baseID, err = binary.ReadVarint(d.br); err != nil {
		return 0, 0, wiref("base rec id: %v", err)
	}
	plen, err := binary.ReadUvarint(d.br)
	if err != nil || plen > wireMaxPayload {
		return 0, 0, wiref("payload length: err=%v len=%d", err, plen)
	}
	d.payload = d.payload[:0]
	for remaining := int(plen); remaining > 0; {
		chunk := remaining
		if chunk > wireReadChunk {
			chunk = wireReadChunk
		}
		n := len(d.payload)
		if cap(d.payload) < n+chunk {
			grown := make([]byte, n, n+chunk+(n+chunk)/2)
			copy(grown, d.payload)
			d.payload = grown
		}
		d.payload = d.payload[:n+chunk]
		if _, err := io.ReadFull(d.br, d.payload[n:]); err != nil {
			return 0, 0, wiref("payload truncated: %v", err)
		}
		remaining -= chunk
	}
	return baseSec, baseID, nil
}

// decodeWireLocation decodes the leading location of an event body and
// returns it with the number of bytes consumed.
func decodeWireLocation(body []byte) (Location, int, error) {
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
		if err := next(dsts[i]); err != nil {
			return Location{}, 0, err
		}
	}
	return loc, pos, nil
}

// decodeWireEvent decodes one event body against the frame bases and
// string table.
func decodeWireEvent(body []byte, baseSec, baseID int64, tbl []string) (Event, error) {
	loc, pos, err := decodeWireLocation(body)
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
	return e, nil
}

// PeekWireEvent decodes only the routing prefix of an event body — its
// location and time — leaving the rest untouched. This is the gate's
// whole per-record decode cost on the pass-through path.
//
//bglvet:hotpath
func PeekWireEvent(body []byte, baseSec int64) (Location, time.Time, error) {
	loc, pos, err := decodeWireLocation(body)
	if err != nil {
		return Location{}, time.Time{}, err
	}
	dsec, w := binary.Varint(body[pos:])
	if w <= 0 {
		return Location{}, time.Time{}, wiref("bad time delta at %d", pos)
	}
	return loc, time.Unix(baseSec+dsec, 0).UTC(), nil
}

// WireFrame is one frame as surfaced by a WireScanner: the header
// bases plus the raw payload. Payload is only valid until the next
// Next call.
type WireFrame struct {
	BaseSec   int64
	BaseRecID int64
	Payload   []byte
}

// Records walks the frame's records in order. fn receives the tag, the
// full raw record bytes (tag + length prefix + content, ready to copy
// into another frame verbatim) and the content alone. A non-nil error
// from fn stops the walk.
func (f *WireFrame) Records(fn func(tag byte, raw, content []byte) error) error {
	p := f.Payload
	for pos := 0; pos < len(p); {
		start := pos
		tag := p[pos]
		pos++
		if tag != WireTagString && tag != WireTagEvent {
			return wiref("unknown record tag 0x%02x at %d", tag, start)
		}
		n, w := binary.Uvarint(p[pos:])
		limit := uint64(wireMaxString)
		if tag == WireTagEvent {
			limit = wireMaxEventBody
		}
		if w <= 0 || n > limit {
			return wiref("bad record length at %d", pos)
		}
		pos += w
		if pos+int(n) > len(p) {
			return wiref("record truncated at %d", pos)
		}
		if err := fn(tag, p[start:pos+int(n)], p[pos:pos+int(n)]); err != nil {
			return err
		}
		pos += int(n)
	}
	return nil
}

// WireScanner reads raw frames from a stream without decoding events —
// the gate's side of the format. It shares the chunked-read bounds of
// WireDecoder but keeps records as bytes.
type WireScanner struct {
	d     WireDecoder
	frame WireFrame
}

// NewWireScanner returns a scanner over r.
func NewWireScanner(r io.Reader) *WireScanner {
	s := &WireScanner{}
	s.d.br = bufio.NewReaderSize(r, 1<<16)
	return s
}

// Reset re-arms the scanner for a new stream, keeping its read and
// payload buffers — the pooling hook, as on WireDecoder.
func (s *WireScanner) Reset(r io.Reader) { s.d.br.Reset(r) }

// Next reads the next frame. The returned frame's Payload is only
// valid until the following Next. io.EOF is returned at a clean
// boundary.
func (s *WireScanner) Next() (*WireFrame, error) {
	baseSec, baseID, err := s.d.readFrameHeader()
	if err != nil {
		return nil, err
	}
	s.frame = WireFrame{BaseSec: baseSec, BaseRecID: baseID, Payload: s.d.payload}
	return &s.frame, nil
}

// WriteWireFile writes events to path as a stream of wire frames.
func WriteWireFile(path string, events []Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := NewWireWriter(f)
	for i := range events {
		if err := w.Write(&events[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadWireFile reads a wire-frame file written by WriteWireFile.
func ReadWireFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d := NewWireDecoder(f)
	var out []Event
	for {
		evs, err := d.ReadFrame()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, evs...)
	}
}
