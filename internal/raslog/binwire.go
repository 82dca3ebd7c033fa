package raslog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"time"
)

// Wire format: the one binary encoding of RAS records. It is both the
// application/x-bglbin ingest body and the binary log file (a file is
// a stream of frames, so its bytes are a valid POST /v1/ingest body).
// Strings and deltas are scoped to one frame rather than to the whole
// stream, which costs a few bytes per record over a cumulative encoding
// and buys exactly the properties a routing gate needs:
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
// format on POST /v1/ingest. Anything else is read as the pipe text
// dialect.
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
	// wireMaxString caps one interned string.
	wireMaxString = 1 << 20
	// wireMaxEventBody caps one event record's body.
	wireMaxEventBody = 1 << 16
	// wireMaxLocField caps each location number: the decoder refuses a
	// larger one, so the writer does too.
	wireMaxLocField = 1 << 31
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
// Flush emits the pending frame. It does not require time order
// (deltas are base-relative), though producers that feed engines should
// still send log order.
type WireWriter struct {
	w       io.Writer
	payload []byte
	body    []byte
	head    []byte
	strings map[string]uint64
	nstr    uint64
	// last holds the previous record's facility, entry and type with
	// their indexes in the pending frame's table, so a repeat finds its
	// index without the map. Flush drops it with the table.
	last    [3]wireLast
	baseSec int64
	baseID  int64
	n       int   // events in the pending frame
	count   int64 // lifetime events written
	err     error
}

// wireLast is one of WireWriter.last: a string in the pending frame's
// table and its index, if ok.
type wireLast struct {
	s   string
	idx uint64
	ok  bool
}

// NewWireWriter returns a writer emitting frames to w.
func NewWireWriter(w io.Writer) *WireWriter {
	return &WireWriter{w: w, strings: make(map[string]uint64)}
}

// index returns the index of s, the event's field-th string (facility,
// entry, type), in the pending frame's table, if the table holds it.
func (w *WireWriter) index(field int, s string) (uint64, bool) {
	if l := &w.last[field]; l.ok && l.s == s {
		return l.idx, true
	}
	idx, ok := w.strings[s]
	return idx, ok
}

// missing reports how many distinct strings of the event's three are
// not yet in the pending frame's table.
func (w *WireWriter) missing(e *Event) uint64 {
	var seen [3]string
	var m uint64
	for field, s := range [3]string{e.Facility, e.EntryData, e.Type} {
		if _, ok := w.index(field, s); ok {
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

// intern returns the frame-local index of s, the event's field-th
// string, emitting an add record the first time the string appears in
// this frame.
func (w *WireWriter) intern(field int, s string) uint64 {
	idx, ok := w.index(field, s)
	if !ok {
		w.payload = append(w.payload, WireTagString)
		w.payload = binary.AppendUvarint(w.payload, uint64(len(s)))
		w.payload = append(w.payload, s...)
		idx = w.nstr
		w.strings[s] = idx
		w.nstr++
	}
	w.last[field] = wireLast{s, idx, true}
	return idx
}

// Write appends one event, opening or splitting frames as needed. An
// event the wire cannot carry — one Validate refuses, a string over the
// cap, a location the decoder would not read back equal — is refused
// without touching the writer: the frame being built survives, and the
// next Write goes on. A write error from the underlying writer is
// sticky.
//
//bglvet:hotpath
func (w *WireWriter) Write(e *Event) error {
	if w.err != nil {
		return w.err
	}
	if err := e.Validate(); err != nil {
		return err
	}
	if len(e.Facility) > wireMaxString || len(e.EntryData) > wireMaxString || len(e.Type) > wireMaxString {
		return refusef(e.RecID, "wire string over %d bytes", wireMaxString)
	}
	if !encodable(e.Location) {
		return refusef(e.RecID, "location %+v does not read back", e.Location)
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
	facIdx := w.intern(0, e.Facility)
	entryIdx := w.intern(1, e.EntryData)
	typeIdx := w.intern(2, e.Type)

	l := &e.Location
	b := append(w.body[:0], byte(l.Kind))
	nums := [4]int{l.Rack, l.Midplane, l.Card, l.Chip}
	for _, n := range nums[:max(l.Kind.depth(), 1)] { // an unknown location spells its zero rack
		b = binary.AppendUvarint(b, uint64(n))
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
	w.last = [3]wireLast{}
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
//
// A stream decodes a record at a time: NextEvent with DecodeEvent
// decode each event into memory the caller picks from its location — a
// server's routing decode, which places every event straight into its
// shard's batch. ReadFrame takes the same step over one frame, into the
// arena.
type WireDecoder struct {
	br      *bufio.Reader
	head    [5]byte
	payload []byte
	tbl     []string
	evs     []Event
	intern  internTable

	// The frame in hand: its bases, the records not walked yet, and how
	// many of its string adds the walk has passed — the indices an event
	// may use, since an add precedes the events referencing it.
	baseSec, baseID int64
	rest            []byte
	nstr            int
	// The event record NextEvent stopped at, decoded up to its location.
	body []byte
	at   int
	loc  Location

	// OnSkip, when set, makes event-record decode failures non-fatal:
	// the bad record is skipped (its length prefix tells the decoder
	// where the next one starts) and handed to the callback. Frame-level
	// corruption — bad magic, a broken string table, truncation — still
	// fails the decode, since nothing after it is trustworthy.
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
	d.rest, d.body = nil, nil
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
// a clean frame boundary. Without OnSkip a corrupt event record fails
// its frame, and the next call goes on with the following frame.
//
//bglvet:hotpath
func (d *WireDecoder) ReadFrame() ([]Event, error) {
	if err := d.loadFrame(); err != nil {
		return nil, err
	}
	d.evs = d.evs[:0]
	for {
		loc, err := d.next(false)
		if err != nil {
			return nil, err
		}
		if loc == nil {
			return d.evs, nil
		}
		d.evs = append(d.evs, Event{})
		if err := d.DecodeEvent(&d.evs[len(d.evs)-1]); err != nil {
			d.evs = d.evs[:len(d.evs)-1]
			if d.OnSkip == nil {
				return nil, err
			}
		}
	}
}

// NextEvent advances to the stream's next event record and decodes its
// location, the routing key, into the decoder's own state; DecodeEvent
// then decodes the rest of the record into wherever the caller routes
// it. The *Location points into the decoder and holds until the next
// NextEvent, ReadFrame or Reset. A record whose location does not
// decode goes to OnSkip or, without OnSkip, comes back as the error and
// ends its frame. NextEvent returns io.EOF at a clean end, and a
// frame-level error exactly as ReadFrame does — before any event of the
// broken frame, so a frame whose framing breaks yields none of its
// events whichever way it is decoded.
//
//bglvet:hotpath
func (d *WireDecoder) NextEvent() (*Location, error) { return d.next(true) }

// next is the one per-record step every wire read takes — NextEvent's,
// ReadFrame's and brokenFrame's: it walks to the next event record and
// decodes its location into d.loc, sending a record whose location does
// not decode to skip. At the end of the frame in hand it loads the next
// frame when more is set, and otherwise returns a nil *Location and a
// nil error.
func (d *WireDecoder) next(more bool) (*Location, error) {
	for {
		body, ok := d.nextBody()
		if !ok {
			if !more {
				return nil, nil
			}
			if err := d.loadFrame(); err != nil {
				return nil, err
			}
			continue
		}
		at, err := decodeWireLocation(body, &d.loc)
		if err != nil {
			if err = d.skip(body, err); err != nil {
				return nil, err
			}
			continue
		}
		d.body, d.at = body, at
		return &d.loc, nil
	}
}

// DecodeEvent decodes the event record NextEvent stopped at into *ev,
// overwriting every field. A non-nil error means the record is corrupt
// past its location and *ev holds no event: the record has gone to
// OnSkip or, without OnSkip, the rest of its frame is dropped.
//
//bglvet:hotpath
func (d *WireDecoder) DecodeEvent(ev *Event) error {
	// Field by field: NextEvent has just stored d.loc a word at a time,
	// and a whole-struct copy reads it back 16 bytes at a time, which
	// the CPU cannot forward from those stores.
	l, dst := &d.loc, &ev.Location
	dst.Kind, dst.Rack, dst.Midplane, dst.Card, dst.Chip = l.Kind, l.Rack, l.Midplane, l.Card, l.Chip
	err := d.decodeRest(d.body, d.at, ev)
	if err != nil {
		_ = d.skip(d.body, err) // err itself or nil; the caller has err either way
	}
	return err
}

// loadFrame reads the next frame and checks its record structure before
// any of its events decodes, interning the frame's string table on the
// way.
func (d *WireDecoder) loadFrame() error {
	d.rest = nil
	baseSec, baseID, err := d.readFrameHeader()
	if err != nil {
		return err
	}
	d.baseSec, d.baseID = baseSec, baseID
	d.tbl = d.tbl[:0]
	p := d.payload
	for pos := 0; pos < len(p); {
		tag, content, next, err := splitRecord(p, pos)
		if err == nil && tag == WireTagString {
			if len(d.tbl) < wireMaxFrameStrings {
				d.tbl = append(d.tbl, d.intern.get(content))
			} else {
				err = wiref("frame exceeds %d strings", wireMaxFrameStrings)
			}
		}
		if err != nil {
			return d.brokenFrame(pos, err)
		}
		pos = next
	}
	d.rest, d.nstr = p, 0
	return nil
}

// splitRecord splits the record at p[pos:] into its tag and content and
// returns where the next record starts: the one framing check the
// decoder and WireFrame.Records share. A record passes when its tag is
// known, its length is within its tag's cap and its content is all
// there.
func splitRecord(p []byte, pos int) (tag byte, content []byte, next int, err error) {
	tag = p[pos]
	what, limit := "event", uint64(wireMaxEventBody)
	switch tag {
	case WireTagString:
		what, limit = "string", wireMaxString
	case WireTagEvent:
	default:
		return 0, nil, 0, wiref("unknown record tag 0x%02x at %d", tag, pos)
	}
	pos++
	n, w := uint64(0), 0
	if pos < len(p) && p[pos] < 0x80 {
		n, w = uint64(p[pos]), 1 // nearly every record's length, read without a call
	} else {
		n, w = binary.Uvarint(p[pos:])
	}
	if w <= 0 || n > limit {
		return 0, nil, 0, wiref("bad %s length at %d", what, pos)
	}
	if pos += w; n > uint64(len(p)-pos) {
		return 0, nil, 0, wiref("%s truncated at %d", what, pos)
	}
	next = pos + int(n)
	return tag, p[pos:next], next, nil
}

// brokenFrame fails a frame whose record at breakAt broke its framing.
// A single-pass walk meets the event records before the break first, so
// each corrupt one among them goes to OnSkip or, without OnSkip, fails
// the frame with its own error — as the frame has always failed.
//
// Each event decodes into one scratch Event, not the arena: a served
// decoder never fills its arena, and a hostile frame of tiny events
// ahead of a break must not make it hold them all.
func (d *WireDecoder) brokenFrame(breakAt int, err error) error {
	d.rest, d.nstr = d.payload[:breakAt], 0
	var scratch Event
	for {
		loc, berr := d.next(false)
		if loc == nil {
			if berr != nil {
				return berr
			}
			return err
		}
		if berr := d.DecodeEvent(&scratch); berr != nil && d.OnSkip == nil {
			return berr
		}
	}
}

// nextBody walks the frame in hand to its next event record, counting
// the string adds it passes, and returns that record's body; false at
// the end of the frame. loadFrame has checked every length it reads.
func (d *WireDecoder) nextBody() ([]byte, bool) {
	for len(d.rest) > 0 {
		tag := d.rest[0]
		n, w := binary.Uvarint(d.rest[1:])
		end := 1 + w + int(n)
		rec := d.rest[1+w : end]
		d.rest = d.rest[end:]
		if tag == WireTagEvent {
			return rec, true
		}
		d.nstr++
	}
	return nil, false
}

// skip disposes of a corrupt event record: OnSkip takes it and the walk
// goes on, or, without OnSkip, its frame ends there and err comes back.
func (d *WireDecoder) skip(body []byte, err error) error {
	if d.OnSkip == nil {
		d.rest = nil
		return err
	}
	d.OnSkip(body, err)
	return nil
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

// The varint kernel every event decode shares — the decoder's record
// step and the gate's PeekWireRoute. Each read returns the value
// and the position after it, or ok=false with pos unchanged, so a
// caller's error names where the bad field starts.

func uvarintAt(b []byte, pos int) (uint64, int, bool) {
	if pos < len(b) && b[pos] < 0x80 {
		return uint64(b[pos]), pos + 1, true // the one-byte form most fields take
	}
	v, w := binary.Uvarint(b[pos:])
	if w <= 0 {
		return 0, pos, false
	}
	return v, pos + w, true
}

func varintAt(b []byte, pos int) (int64, int, bool) {
	ux, next, ok := uvarintAt(b, pos)
	x := int64(ux >> 1) // zigzag, as binary.Varint
	if ux&1 != 0 {
		x = ^x
	}
	return x, next, ok
}

// decodeWireLocation decodes the leading location of an event body into
// *loc, writing every field, and returns the number of bytes consumed.
// It refuses a location encodable refuses: a number past
// wireMaxLocField, or a midplane other than 0 or 1. On an error *loc is
// left as it was.
func decodeWireLocation(body []byte, loc *Location) (int, error) {
	if len(body) == 0 {
		return 0, wiref("empty event body")
	}
	kind := LocationKind(body[0])
	if kind < KindUnknown || kind > KindServiceCard {
		return 0, wiref("invalid location kind %d", body[0])
	}
	// The rack, then as many of midplane, card and chip as the kind has.
	fields := 1
	switch kind {
	case KindMidplane, KindServiceCard:
		fields = 2
	case KindNodeCard, KindLinkCard:
		fields = 3
	case KindComputeChip, KindIONode:
		fields = 4
	}
	// Real BG/L locations count below 128 in every field, so each field
	// is one uvarint byte: read them in one load when the body has the
	// bytes (every event body does; only a cut one falls to the loop),
	// and the midplane byte is 0 or 1 (the loop refuses any other).
	if len(body) >= 5 {
		x := binary.LittleEndian.Uint32(body[1:5]) & (uint32(1)<<(8*fields) - 1)
		if x&0x8080fe80 == 0 {
			loc.Kind, loc.Rack, loc.Midplane, loc.Card, loc.Chip = kind, int(x&0xff), int(x>>8&0xff), int(x>>16&0xff), int(x>>24)
			return 1 + fields, nil
		}
	}
	var v [4]int
	pos := 1
	for i := 0; i < fields; i++ {
		x, next, ok := uvarintAt(body, pos)
		if !ok || x > wireMaxLocField || i == 1 && x > 1 {
			return 0, wiref("bad location field at %d", pos)
		}
		v[i], pos = int(x), next
	}
	loc.Kind, loc.Rack, loc.Midplane, loc.Card, loc.Chip = kind, v[0], v[1], v[2], v[3]
	return pos, nil
}

// wireSec admits a record's time, baseSec+dsec seconds, and returns it:
// false when the sum wraps or is a time TimeInRange refuses, as every
// backend does. The decoders and the gate's peek share it, so the gate
// dates a record only if a backend would take it.
func wireSec(baseSec, dsec int64) (int64, bool) {
	// The sum wraps exactly when it moves against dsec's sign.
	sec := baseSec + dsec
	if (sec > baseSec) != (dsec > 0) || !TimeInRange(time.Unix(sec, 0)) {
		return 0, false
	}
	return sec, true
}

// decodeRest decodes an event body from pos, just past its location,
// against the frame's bases and the strings it has added so far.
func (d *WireDecoder) decodeRest(body []byte, pos int, ev *Event) error {
	var dsec, did int64
	var ok bool
	if dsec, pos, ok = varintAt(body, pos); !ok {
		return wiref("bad time delta at %d", pos)
	}
	sec, ok := wireSec(d.baseSec, dsec)
	if !ok {
		return wiref("time %d%+d s out of range", d.baseSec, dsec)
	}
	ev.Time = time.Unix(sec, 0).UTC()
	if did, pos, ok = varintAt(body, pos); !ok {
		return wiref("bad rec id delta at %d", pos)
	}
	ev.RecID = d.baseID + did
	if ev.JobID, pos, ok = varintAt(body, pos); !ok {
		return wiref("bad job id at %d", pos)
	}
	if pos >= len(body) {
		return wiref("severity missing")
	}
	ev.Severity = Severity(body[pos])
	pos++
	if !ev.Severity.Valid() {
		return wiref("invalid severity %d", ev.Severity)
	}
	if ev.Facility, pos, ok = d.stringAt(body, pos); !ok {
		return wiref("bad facility index at %d", pos)
	}
	if ev.EntryData, pos, ok = d.stringAt(body, pos); !ok {
		return wiref("bad entry index at %d", pos)
	}
	if ev.Type, _, ok = d.stringAt(body, pos); !ok {
		return wiref("bad type index at %d", pos)
	}
	if ev.Type == "" {
		return wiref("empty event type") // the writers refuse it, and so does the text decoder
	}
	return nil
}

// stringAt resolves the string index at body[pos:] among the strings
// the frame has added so far.
func (d *WireDecoder) stringAt(body []byte, pos int) (string, int, bool) {
	i, next, ok := uvarintAt(body, pos)
	if !ok || i >= uint64(d.nstr) {
		return "", pos, false
	}
	return d.tbl[i], next, true
}

// PeekWireRoute decodes only the routing prefix of an event body — its
// location, into *loc, and its time delta from baseSec — leaving the
// rest untouched. This is the gate's whole per-record decode cost on the
// pass-through path. A record whose time a backend would refuse does
// not peek: the gate routes it as it routes an unreadable location.
//
//bglvet:hotpath
func PeekWireRoute(body []byte, baseSec int64, loc *Location) (int64, error) {
	pos, err := decodeWireLocation(body, loc)
	if err != nil {
		return 0, err
	}
	dsec, _, ok := varintAt(body, pos)
	if !ok {
		return 0, wiref("bad time delta at %d", pos)
	}
	if _, ok := wireSec(baseSec, dsec); !ok {
		return 0, wiref("time %d%+d s out of range", baseSec, dsec)
	}
	return dsec, nil
}

// PeekWireEvent is PeekWireRoute returning the location and the time by
// value.
//
//bglvet:hotpath
func PeekWireEvent(body []byte, baseSec int64) (Location, time.Time, error) {
	var loc Location
	dsec, err := PeekWireRoute(body, baseSec, &loc)
	if err != nil {
		return Location{}, time.Time{}, err
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
		tag, content, next, err := splitRecord(p, pos)
		if err != nil {
			return err
		}
		if err := fn(tag, p[pos:next], content); err != nil {
			return err
		}
		pos = next
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

// WriteWireFile writes events to path as a stream of wire frames: the
// binary log file, whose bytes are also a valid ingest body.
func WriteWireFile(path string, events []Event) error {
	return writeEvents(path, events, NewWireWriter)
}

// readWire decodes a stream of wire frames to its end.
func readWire(r io.Reader) ([]Event, error) {
	d := NewWireDecoder(r)
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

// retiredBinMagic opened the binary log files of an earlier, separate
// file codec with stream-wide strings and deltas.
const retiredBinMagic = "BGLRAS1\n"

// ErrRetiredBinLog is ReadAnyFile's error for a file in the retired
// BGLRAS1 binary log format.
var ErrRetiredBinLog = errors.New(`raslog: retired "BGLRAS1" binary log format; convert it with an older bglconvert -out wire`)

// ReadAnyFile reads a RAS log that is either a wire-frame file or the
// text dialect, sniffing the wire magic through the buffer it then
// decodes from.
func ReadAnyFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	head, err := br.Peek(len(retiredBinMagic))
	if err != nil && err != io.EOF {
		return nil, err
	}
	switch {
	case string(head) == retiredBinMagic:
		return nil, fmt.Errorf("%s: %w", path, ErrRetiredBinLog)
	case bytes.HasPrefix(head, []byte(wireMagic)):
		return readWire(br)
	}
	return NewReader(br).ReadAll()
}
