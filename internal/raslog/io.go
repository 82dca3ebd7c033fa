package raslog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"
)

// The on-disk dialect is one record per line, eight pipe-separated
// fields mirroring a DB2 RAS dump:
//
//	RECID|TYPE|TIME|JOBID|LOCATION|FACILITY|SEVERITY|ENTRY_DATA
//
// TIME is RFC 3339 in UTC at one-second resolution, matching the
// paper's observation that "the recorded event time is generally in
// seconds". ENTRY_DATA is last because it is the only field with
// free-ish text (pipes and newlines are rejected at write time).

const timeLayout = "2006-01-02 15:04:05"

// A Writer streams RAS records to an underlying io.Writer in the log
// dialect above.
type Writer struct {
	bw    *bufio.Writer
	line  []byte // encode scratch, reused across records
	count int64
	err   error
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16)}
}

// Write appends one record. A pipe or newline in ENTRY_DATA or
// FACILITY is refused: the dialect reserves them, though a lenient
// Reader and the wire carry them. The first error encountered is
// sticky.
func (w *Writer) Write(e *Event) error {
	if w.err != nil {
		return w.err
	}
	err := e.Validate()
	switch {
	case err != nil:
	case strings.ContainsAny(e.EntryData, "\n|"):
		err = fmt.Errorf("raslog: record %d: entry data contains reserved characters", e.RecID)
	case strings.ContainsAny(e.Facility, "\n|"):
		err = fmt.Errorf("raslog: record %d: facility contains reserved characters", e.RecID)
	}
	if err != nil {
		w.err = err
		return err
	}
	b := strconv.AppendInt(w.line[:0], e.RecID, 10)
	b = append(append(b, '|'), e.Type...)
	b = e.Time.UTC().AppendFormat(append(b, '|'), timeLayout)
	b = strconv.AppendInt(append(b, '|'), e.JobID, 10)
	b = e.Location.AppendTo(append(b, '|'))
	b = append(append(b, '|'), e.Facility...)
	b = append(append(b, '|'), e.Severity.String()...)
	b = append(append(b, '|'), e.EntryData...)
	b = append(b, '\n')
	w.line = b
	if _, err := w.bw.Write(b); err != nil {
		w.err = err
		return err
	}
	w.count++
	return nil
}

// Count returns the number of records written so far.
func (w *Writer) Count() int64 { return w.count }

// Flush drains buffered output to the underlying writer.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.bw.Flush()
	return w.err
}

// LineError describes one line a Reader could not decode: where it
// was, what it looked like, and why it failed. Strict readers return
// it from Read; lenient readers hand it to the OnSkip callback and
// keep going.
type LineError struct {
	// Line is the 1-based line number within the stream.
	Line int64
	// Raw is the offending line's text.
	Raw string
	// Err is the decode failure.
	Err error
}

func (e *LineError) Error() string { return fmt.Sprintf("line %d: %v", e.Line, e.Err) }
func (e *LineError) Unwrap() error { return e.Err }

const (
	// readerBufSize is the line buffer a Reader starts with.
	readerBufSize = 1 << 16
	// maxLineBytes caps one line, terminator included; a longer one
	// fails the stream with bufio.ErrTooLong.
	maxLineBytes = 1 << 20
)

// A Reader streams RAS records from an underlying io.Reader. Each
// line is either a pipe-dialect record or an NDJSON object (see
// ndjson.go); the two may be mixed freely within one stream.
//
// By default the reader is strict: the first undecodable line fails
// Read with a *LineError. Lenient switches it to skip such lines —
// counting them and surfacing each to a callback — so one garbage
// line interleaved into a production RAS stream cannot terminate
// ingestion of everything after it.
//
// A stream decodes one of two ways, as a WireDecoder's does: Read
// returns a record at a time, and NextEvent with DecodeEvent split the
// next line and return its location first, then decode the record into
// memory the caller picks from that location. Pipe records in the
// spelling Writer emits decode straight from the line buffer without
// allocating: LOCATION resolves through a capped cache, and TYPE,
// FACILITY and ENTRY_DATA through a compare against the previous
// record's value ahead of a capped intern table. Every other line,
// valid or not, takes the general parser. A Reader is meant to be
// pooled and re-armed with Reset, which keeps the buffer and the
// caches warm.
type Reader struct {
	src        io.Reader
	buf        []byte // line buffer; doubles up to maxLineBytes for a long line
	start, end int    // buf[start:end] is read but not yet split into lines
	srcErr     error  // sticky: why src stopped (io.EOF at a clean end)

	line int64
	// last is the most recent record line. It aliases buf until the
	// next fill, which parks it in lastBuf so Raw stays answerable.
	last      []byte
	lastBuf   []byte
	lastInBuf bool

	lenient bool
	skipped int64
	onSkip  func(LineError)

	// The record NextEvent stopped at: its fields, split in place in
	// buf, and its location; or, for a line only the general parser
	// decodes, the whole event.
	f    [8][]byte
	loc  Location
	slow bool
	ev   Event

	// Fast-path caches; all are pure functions of the bytes they key
	// on, so they carry over a Reset.
	intern          internTable
	locs            map[string]Location // capped as intern is
	typ, fac, entry lastValue
	stamp           [len(timeLayout)]byte // text of the last timestamp decoded
	stampTime       time.Time
	stamped         bool // stamp holds a decoded timestamp
}

// lastValue resolves a field that mostly repeats the previous record's
// (TYPE, FACILITY, ENTRY_DATA in a CMCS stream) with one compare,
// reaching for the intern table only when the value changes. It keeps
// one string of at most wireInternMaxLen bytes.
type lastValue struct{ s string }

func (m *lastValue) get(t internTable, b []byte) string {
	if string(b) == m.s {
		return m.s
	}
	s := t.get(b)
	if len(s) <= wireInternMaxLen {
		m.s = s
	}
	return s
}

// NewReader returns a Reader consuming the log dialect from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{src: r, buf: make([]byte, readerBufSize), intern: make(internTable), locs: make(map[string]Location)}
}

// Reset re-arms the reader for a new stream, as if fresh from
// NewReader — strict, line 0, nothing skipped — but keeping its
// buffers and caches: the pooling hook.
func (r *Reader) Reset(src io.Reader) {
	r.src, r.start, r.end, r.srcErr = src, 0, 0, nil
	r.line, r.last, r.lastInBuf = 0, nil, false
	r.lenient, r.skipped, r.onSkip = false, 0, nil
	r.ev = Event{}
}

// Lenient switches the reader to skip undecodable lines instead of
// failing the stream. Each skipped line is counted (SkippedLines) and
// passed to onSkip (which may be nil). Returns r for chaining.
func (r *Reader) Lenient(onSkip func(LineError)) *Reader {
	r.lenient = true
	r.onSkip = onSkip
	return r
}

// SkippedLines reports how many undecodable lines a lenient reader
// has skipped so far.
func (r *Reader) SkippedLines() int64 { return r.skipped }

// Raw returns the raw text of the line most recently scanned — the one
// the last successful Read decoded, or NextEvent stopped at. Callers
// that transform decoded events (the gate's transcoding path) use it to
// preserve the original bytes of a record they cannot reproduce.
func (r *Reader) Raw() string { return string(r.last) }

// Line returns the 1-based line number of the most recently scanned
// line.
func (r *Reader) Line() int64 { return r.line }

// Read returns the next record, or io.EOF after the last one. In
// strict mode (the default) an undecodable line returns a *LineError;
// in lenient mode it is skipped and the scan continues. A stream-level
// failure (a line over the cap, a source read error) is final: every
// later Read returns it again.
//
//bglvet:hotpath
func (r *Reader) Read() (Event, error) {
	for {
		if _, err := r.NextEvent(); err != nil {
			return Event{}, err
		}
		var ev Event
		err := r.DecodeEvent(&ev)
		if err == nil {
			return ev, nil
		}
		if !r.lenient {
			return Event{}, err
		}
	}
}

// NextEvent advances to the stream's next record line and returns its
// location, the routing key; DecodeEvent then decodes the rest of the
// record into wherever the caller routes it. Blank and comment lines
// are passed over. An undecodable line shows up here or in DecodeEvent,
// and goes as it does in Read: a lenient reader skips it and goes on, a
// strict one returns its *LineError, and the stream stays readable.
// NextEvent returns io.EOF at a clean end, and a stream-level failure
// as Read does.
//
//bglvet:hotpath
func (r *Reader) NextEvent() (Location, error) {
	for {
		line, ok := r.nextLine()
		if !ok {
			return Location{}, r.srcErr // io.EOF at a clean end
		}
		r.line++
		if len(line) == 0 || line[0] == '#' {
			continue // blank lines and comments are permitted
		}
		r.last, r.lastInBuf = line, true
		if r.split(line) {
			r.slow = false
			return r.loc, nil
		}
		ev, err := parseSlow(line)
		if err == nil {
			r.ev, r.slow = ev, true
			return ev.Location, nil
		}
		if err := r.skip(err); err != nil {
			return Location{}, err
		}
	}
}

// DecodeEvent decodes the record NextEvent stopped at into *ev,
// overwriting every field. A non-nil error means the line is
// undecodable past its location and *ev holds no event: a strict
// reader returns the line's *LineError, and a lenient one has already
// counted the line and handed it to onSkip.
//
//bglvet:hotpath
func (r *Reader) DecodeEvent(ev *Event) error {
	if r.slow {
		*ev = r.ev
		return nil
	}
	if r.decodeFast(ev) {
		return nil
	}
	parsed, err := parseSlow(r.last)
	if err == nil {
		*ev = parsed
		return nil
	}
	if serr := r.skip(err); serr != nil {
		return serr
	}
	return err
}

// skip disposes of the undecodable line in hand: a strict reader
// returns its *LineError; a lenient one counts it, hands it to onSkip
// and returns nil.
func (r *Reader) skip(err error) error {
	//bglvet:ignore hotpathalloc the copy happens only for undecodable lines, on their way into a LineError
	le := LineError{Line: r.line, Raw: string(r.last), Err: err}
	if !r.lenient {
		return &le
	}
	r.skipped++
	if r.onSkip != nil {
		r.onSkip(le)
	}
	return nil
}

// nextLine returns the next line without its terminator ("\n" or
// "\r\n"; the last line may be unterminated), valid until the next
// call. It reports false once the source is exhausted or failed.
func (r *Reader) nextLine() ([]byte, bool) {
	for {
		if i := bytes.IndexByte(r.buf[r.start:r.end], '\n'); i >= 0 {
			line := r.buf[r.start : r.start+i]
			r.start += i + 1
			return dropCR(line), true
		}
		if r.srcErr != nil {
			line := r.buf[r.start:r.end]
			r.start = r.end
			return dropCR(line), len(line) > 0
		}
		r.fill()
	}
}

func dropCR(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\r' {
		return line[:n-1]
	}
	return line
}

// fill reads more of the source behind the unsplit tail, sliding the
// tail to the front of the buffer or doubling the buffer when it needs
// the room. A tail that fills the buffer at maxLineBytes is a line over
// the cap: it is dropped and the stream fails.
func (r *Reader) fill() {
	if r.lastInBuf {
		r.lastBuf = append(r.lastBuf[:0], r.last...)
		r.last, r.lastInBuf = r.lastBuf, false
	}
	if r.start > 0 && (r.end == len(r.buf) || r.start > len(r.buf)/2) {
		r.end = copy(r.buf, r.buf[r.start:r.end])
		r.start = 0
	}
	if r.end == len(r.buf) {
		if len(r.buf) >= maxLineBytes {
			r.start, r.srcErr = r.end, bufio.ErrTooLong
			return
		}
		grown := make([]byte, min(2*len(r.buf), maxLineBytes))
		copy(grown, r.buf[:r.end])
		r.buf = grown
	}
	for empty := 0; ; empty++ {
		n, err := r.src.Read(r.buf[r.end:])
		if n < 0 || n > len(r.buf)-r.end {
			r.srcErr = bufio.ErrBadReadCount
			return
		}
		r.end += n
		if err != nil {
			r.srcErr = err
			return
		}
		if n > 0 {
			return
		}
		if empty == 100 { // bufio's patience with a source that returns (0, nil)
			r.srcErr = io.ErrNoProgress
			return
		}
	}
}

// split cuts a pipe record into its eight fields, in place, and
// resolves its location through the location cache. It reports false
// for an NDJSON object, a line of fewer than eight fields and a
// location that does not parse: the verdict on those, and the error
// text, belong to parseSlow.
func (r *Reader) split(line []byte) bool {
	if line[0] == '{' {
		return false
	}
	rest := line
	for i := 0; i < 7; i++ {
		j := bytes.IndexByte(rest, '|')
		if j < 0 {
			return false
		}
		r.f[i], rest = rest[:j], rest[j+1:]
	}
	r.f[7] = rest // a stray pipe in ENTRY_DATA stays in the field

	loc, ok := r.locs[string(r.f[4])] // no allocation on the hit path
	if !ok {
		if loc, ok = parseLocation(r.f[4]); !ok {
			return false
		}
		if len(r.locs) < wireInternCap && len(r.f[4]) <= wireInternMaxLen {
			r.locs[string(r.f[4])] = loc // a miss copies the key once
		}
	}
	r.loc = loc
	return true
}

// decodeFast decodes the rest of the split record in the spelling
// Writer emits — plain decimal ids, a "2006-01-02 15:04:05" timestamp —
// without allocating. It reports false for every other spelling, valid
// or not, and leaves those to parseSlow.
func (r *Reader) decodeFast(ev *Event) bool {
	var ok bool
	if ev.RecID, ok = fastInt(r.f[0]); !ok {
		return false
	}
	if ev.Time, ok = r.fastTime(r.f[2]); !ok {
		return false
	}
	if ev.JobID, ok = fastInt(r.f[3]); !ok {
		return false
	}
	if ev.Severity, ok = parseSeverity(r.f[6]); !ok {
		return false
	}
	ev.Location = r.loc
	ev.Type = r.typ.get(r.intern, r.f[1])
	ev.Facility = r.fac.get(r.intern, r.f[5])
	ev.EntryData = r.entry.get(r.intern, r.f[7])
	return true
}

// fastInt parses b as strconv.ParseInt(b, 10, 64) does, for the values
// that cannot overflow: an optional sign and one to eighteen digits.
func fastInt(b []byte) (int64, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		neg, b = b[0] == '-', b[1:]
	}
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	var n int64
	for _, c := range b {
		d := c - '0'
		if d > 9 {
			return 0, false
		}
		n = n*10 + int64(d)
	}
	if neg {
		n = -n
	}
	return n, true
}

// fastTime parses b as time.ParseInLocation(timeLayout, b, time.UTC)
// does when b has exactly the layout's shape: nineteen bytes, every
// number at full width, in a year wholly inside [minTime, maxTime].
// (The general parser also takes a one-digit hour and fractional
// seconds, and decides the years at the ends.) CMCS stamps whole
// seconds, so raw logs carry long same-second runs; the last stamp is
// cached once one has decoded.
func (r *Reader) fastTime(b []byte) (time.Time, bool) {
	if len(b) != len(timeLayout) {
		return time.Time{}, false
	}
	if r.stamped && string(b) == string(r.stamp[:]) {
		return r.stampTime, true
	}
	if b[4] != '-' || b[7] != '-' || b[10] != ' ' || b[13] != ':' || b[16] != ':' {
		return time.Time{}, false
	}
	century, yy := digits2(b[0:2]), digits2(b[2:4])
	month, day := digits2(b[5:7]), digits2(b[8:10])
	hour, minute, sec := digits2(b[11:13]), digits2(b[14:16]), digits2(b[17:19])
	year := 100*century + yy
	if century < 0 || yy < 0 || year < 1678 || year > 2261 || month < 1 || month > 12 || day < 1 || day > daysIn(month, year) ||
		hour < 0 || hour > 23 || minute < 0 || minute > 59 || sec < 0 || sec > 59 {
		return time.Time{}, false
	}
	copy(r.stamp[:], b)
	r.stampTime = time.Date(year, time.Month(month), day, hour, minute, sec, 0, time.UTC)
	r.stamped = true
	return r.stampTime, true
}

// digits2 is the value of a two-digit field, or -1 if either byte is
// not a digit.
func digits2(b []byte) int {
	hi, lo := b[0]-'0', b[1]-'0'
	if hi > 9 || lo > 9 {
		return -1
	}
	return int(hi)*10 + int(lo)
}

func daysIn(month, year int) int {
	switch month {
	case 2:
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	case 4, 6, 9, 11:
		return 30
	}
	return 31
}

// parseSlow is the general decoder: NDJSON objects, and every pipe
// line decodeFast passed over. It refuses a record whose time is
// outside [minTime, maxTime].
func parseSlow(line []byte) (ev Event, err error) {
	if line[0] == '{' {
		err = json.Unmarshal(line, &ev)
	} else {
		//bglvet:ignore hotpathalloc the general parser works on a string; lines in Writer's spelling never reach it
		ev, err = parseLine(string(line))
	}
	if err == nil && !timeInRange(ev.Time) {
		return Event{}, parsef("raslog: time %s out of range", ev.Time.UTC().Format(timeLayout))
	}
	return ev, err
}

// ReadAll drains the reader into a slice.
func (r *Reader) ReadAll() ([]Event, error) {
	var out []Event
	for {
		ev, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, ev)
	}
}

// parsef builds the general parsers' errors.
func parsef(format string, args ...any) error {
	//bglvet:ignore hotpathalloc error construction runs only for undecodable lines, which the fast path has already passed over
	return fmt.Errorf(format, args...)
}

func parseLine(line string) (Event, error) {
	// SplitN so a stray pipe in ENTRY_DATA (rejected by the writer, but
	// tolerated on read) stays in the final field.
	fields := strings.SplitN(line, "|", 8)
	if len(fields) != 8 {
		return Event{}, parsef("raslog: want 8 fields, got %d", len(fields))
	}
	recID, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return Event{}, parsef("raslog: bad record id %q", fields[0])
	}
	ts, err := time.ParseInLocation(timeLayout, fields[2], time.UTC)
	if err != nil {
		return Event{}, parsef("raslog: bad timestamp %q", fields[2])
	}
	jobID, err := strconv.ParseInt(fields[3], 10, 64)
	if err != nil {
		return Event{}, parsef("raslog: bad job id %q", fields[3])
	}
	loc, err := ParseLocation(fields[4])
	if err != nil {
		return Event{}, err
	}
	sev, err := ParseSeverity(fields[6])
	if err != nil {
		return Event{}, err
	}
	return Event{
		RecID:     recID,
		Type:      fields[1],
		Time:      ts,
		JobID:     jobID,
		Location:  loc,
		Facility:  fields[5],
		Severity:  sev,
		EntryData: fields[7],
	}, nil
}

// WriteFile writes events to path in the log dialect.
func WriteFile(path string, events []Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := NewWriter(f)
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

// ReadFile reads an entire log file.
func ReadFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return NewReader(f).ReadAll()
}

// Summary aggregates what paper Table 1 reports about a log.
type Summary struct {
	Records   int64
	Start     time.Time
	End       time.Time
	Bytes     int64 // serialized size in the log dialect
	BySev     [int(numSeverities)]int64
	FatalRecs int64
}

// Summarize scans events (any order) and accumulates a Summary.
func Summarize(events []Event) Summary {
	var s Summary
	for i := range events {
		e := &events[i]
		s.Records++
		if s.Start.IsZero() || e.Time.Before(s.Start) {
			s.Start = e.Time
		}
		if e.Time.After(s.End) {
			s.End = e.Time
		}
		if e.Severity.Valid() {
			s.BySev[e.Severity]++
		}
		if e.IsFatal() {
			s.FatalRecs++
		}
		// Serialized size: field bytes + 7 pipes + newline. RecID and
		// JobID use their decimal widths; TIME is fixed-width.
		s.Bytes += int64(decWidth(e.RecID) + len(e.Type) + len(timeLayout) +
			decWidth(e.JobID) + len(e.Location.String()) + len(e.Facility) +
			len(e.Severity.String()) + len(e.EntryData) + 8)
	}
	return s
}

func decWidth(n int64) int {
	w := 1
	if n < 0 {
		w++
		n = -n
	}
	for n >= 10 {
		n /= 10
		w++
	}
	return w
}

// Duration returns the span covered by the log.
func (s Summary) Duration() time.Duration { return s.End.Sub(s.Start) }
