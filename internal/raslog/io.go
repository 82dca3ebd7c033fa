package raslog

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
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
//
// It spells each line straight into its bufio buffer: TIME from a
// cached "YYYY-MM-DD " keyed on the unix day plus the time of day by
// arithmetic, and TYPE, FACILITY and ENTRY_DATA with no check for
// reserved characters when they equal the last values that passed it.
// In a CMCS stream the day and the texts seldom change.
type Writer struct {
	bw    *bufio.Writer
	count int64
	err   error

	day  int64                 // the unix day date spells, or -1
	date [len(dateLayout)]byte // day in dateLayout
	// The TYPE, FACILITY and ENTRY_DATA of the last record check passed.
	typ, fac, entry string
}

// dateLayout is timeLayout's date and the space after it.
const dateLayout = "2006-01-02 "

// maxFixedLine bounds the bytes a line spends outside TYPE, FACILITY
// and ENTRY_DATA: two int64s, TIME, a location encodable admits, a
// severity, seven pipes and the newline.
const maxFixedLine = 128

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16), day: -1}
}

// Write appends one record. It refuses a record Validate refuses, a
// pipe or newline in TYPE, ENTRY_DATA or FACILITY (the dialect reserves
// them, though a lenient Reader and the wire carry them), an ENTRY_DATA
// that ends in a carriage return (the Reader takes it for half of a
// CRLF), a location either writer would not read back equal, and a line
// over the Reader's cap. A refused record leaves the Writer as it was,
// so the next Write goes on; an error from the underlying writer is
// sticky.
//
//bglvet:hotpath
func (w *Writer) Write(e *Event) error {
	if w.err != nil {
		return w.err
	}
	if err := w.check(e); err != nil {
		return err
	}
	if w.bw.Available() < maxFixedLine+len(e.Type)+len(e.Facility)+len(e.EntryData) {
		if err := w.bw.Flush(); err != nil {
			w.err = err
			return err
		}
	}
	b := strconv.AppendInt(w.bw.AvailableBuffer(), e.RecID, 10)
	b = append(append(b, '|'), e.Type...)
	b = w.appendTime(append(b, '|'), e.Time.Unix())
	b = strconv.AppendInt(append(b, '|'), e.JobID, 10)
	b = e.Location.AppendTo(append(b, '|'))
	b = append(append(b, '|'), e.Facility...)
	b = append(append(b, '|'), severityNames[e.Severity]...)
	b = append(append(b, '|'), e.EntryData...)
	b = append(b, '\n')
	if len(b) > maxLineBytes {
		return refusef(e.RecID, "line over %d bytes", maxLineBytes)
	}
	if _, err := w.bw.Write(b); err != nil {
		w.err = err
		return err
	}
	w.count++
	return nil
}

// check is Write's refusal of a record the dialect cannot carry back.
// A TYPE, FACILITY or ENTRY_DATA equal to the one the last record
// passed with is not scanned again.
func (w *Writer) check(e *Event) error {
	if err := e.Validate(); err != nil {
		return err
	}
	switch {
	case e.Type != w.typ && strings.ContainsAny(e.Type, "\n|"):
		return refusef(e.RecID, "type contains reserved characters")
	case e.EntryData != w.entry && strings.ContainsAny(e.EntryData, "\n|"):
		return refusef(e.RecID, "entry data contains reserved characters")
	case e.Facility != w.fac && strings.ContainsAny(e.Facility, "\n|"):
		return refusef(e.RecID, "facility contains reserved characters")
	case !encodable(e.Location):
		return refusef(e.RecID, "location %+v does not read back", e.Location)
	case e.EntryData != w.entry && strings.HasSuffix(e.EntryData, "\r"):
		return refusef(e.RecID, "entry data ends in a carriage return")
	}
	w.typ, w.fac, w.entry = e.Type, e.Facility, e.EntryData
	return nil
}

// appendTime appends sec, a unix second TimeInRange admits, in
// timeLayout.
func (w *Writer) appendTime(b []byte, sec int64) []byte {
	if day := sec / 86400; day != w.day {
		time.Unix(day*86400, 0).UTC().AppendFormat(w.date[:0], dateLayout)
		w.day = day
	}
	s := int(sec % 86400)
	h, m := s/3600, s/60%60
	s %= 60
	return append(append(b, w.date[:]...),
		byte('0'+h/10), byte('0'+h%10), ':', byte('0'+m/10), byte('0'+m%10), ':', byte('0'+s/10), byte('0'+s%10))
}

// Count returns the number of records written so far.
func (w *Writer) Count() int64 { return w.count }

// Flush drains every record Write accepted to the underlying writer.
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

// A Reader streams RAS records from an underlying io.Reader, one
// pipe-dialect record per line.
//
// By default the reader is strict: the first undecodable line fails
// Read with a *LineError. Lenient switches it to skip such lines —
// counting them and surfacing each to a callback — so one garbage
// line interleaved into a production RAS stream cannot terminate
// ingestion of everything after it.
//
// NextEvent decodes the next line and returns its location first, so
// DecodeEvent can hand the record to memory the caller picks from that
// location, as on a WireDecoder; Read is the two steps in one. A line
// decodes in one pass, left to right, straight from the line buffer and
// without allocating: TYPE, FACILITY and ENTRY_DATA through a compare
// against the previous record's value ahead of a capped intern table,
// TIME through a same-second cache. The pass takes the fields in the
// spellings Writer emits, and only records WireWriter writes; any other
// line is undecodable. A Reader is meant to be pooled and
// re-armed with Reset, which keeps the buffer and the caches warm.
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

	ev Event // the record NextEvent stopped at

	// Fast-path caches; all are pure functions of the bytes they key
	// on, so they carry over a Reset.
	intern          internTable
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

// field resolves the field at b[i:], which runs to the next '|', and
// returns the index past that '|'. A repeat of the last value is
// matched in place, with no search for the '|'.
func (m *lastValue) field(t internTable, b []byte, i int) (string, int, bool) {
	if j := i + len(m.s); j < len(b) && b[j] == '|' && string(b[i:j]) == m.s {
		return m.s, j + 1, true
	}
	n := bytes.IndexByte(b[i:], '|')
	if n < 0 {
		return "", 0, false
	}
	return m.get(t, b[i:i+n]), i + n + 1, true
}

// NewReader returns a Reader consuming the log dialect from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{src: r, buf: make([]byte, readerBufSize), intern: make(internTable)}
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
	if _, err := r.NextEvent(); err != nil {
		return Event{}, err
	}
	return r.ev, nil
}

// NextEvent advances to the stream's next record line, decodes it and
// returns its location, the routing key; DecodeEvent then copies the
// record to wherever the caller routes it. The *Location points into
// the reader and holds until the next NextEvent, Read or Reset. Blank
// and comment lines are passed over. An undecodable line goes as it
// does in Read: a lenient reader skips it and goes on, a strict one
// returns its *LineError, and the stream stays readable. NextEvent
// returns io.EOF at a clean end, and a stream-level failure as Read
// does.
//
//bglvet:hotpath
func (r *Reader) NextEvent() (*Location, error) {
	for {
		line, ok := r.nextLine()
		if !ok {
			return nil, r.srcErr // io.EOF at a clean end
		}
		r.line++
		if len(line) == 0 || line[0] == '#' {
			continue // blank lines and comments are permitted
		}
		r.last, r.lastInBuf = line, true
		if r.decode(line) {
			return &r.ev.Location, nil
		}
		if err := r.skip(refusal(line)); err != nil {
			return nil, err
		}
	}
}

// DecodeEvent stores the record NextEvent stopped at in *ev,
// overwriting every field. NextEvent has already decoded the whole
// line, so it never fails; the error is there for the shape a
// WireDecoder shares.
//
//bglvet:hotpath
func (r *Reader) DecodeEvent(ev *Event) error {
	*ev = r.ev
	return nil
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

// decode decodes the pipe record on line b into r.ev, in one pass left
// to right, and reports whether it could: each field in a spelling
// Writer emits (the ids may also carry a '+' or leading zeros, the
// location numbers leading zeros), and a record WireWriter writes — a
// TYPE, and a location and a time in their ranges. TYPE, FACILITY and
// ENTRY_DATA are otherwise free. refusal names what is wrong with any
// other line.
func (r *Reader) decode(b []byte) bool {
	ev := &r.ev
	var i int
	var ok bool
	if ev.RecID, i, ok = scanInt(b, 0); !ok {
		return false
	}
	if ev.Type, i, ok = r.typ.field(r.intern, b, i); !ok || ev.Type == "" {
		return false
	}
	if ev.Time, i, ok = r.scanTime(b, i); !ok {
		return false
	}
	if ev.JobID, i, ok = scanInt(b, i); !ok {
		return false
	}
	if ev.Location, i, ok = scanLocation(b, i); !ok {
		return false
	}
	if ev.Facility, i, ok = r.fac.field(r.intern, b, i); !ok {
		return false
	}
	if ev.Severity, i, ok = scanSeverity(b, i); !ok {
		return false
	}
	ev.EntryData = r.entry.get(r.intern, b[i:]) // a stray pipe in ENTRY_DATA stays in the field
	return true
}

// refusal is the error of line b, which decode refused: too few
// fields, else the first of RECID, TYPE, TIME, JOBID, LOCATION and
// SEVERITY that decode does not take, else a time out of range. It
// runs only on that path.
func refusal(b []byte) error {
	var end [7]int // end[k] indexes the '|' that closes field k
	n := 0
	for i := 0; i < len(b) && n < len(end); i++ {
		if b[i] == '|' {
			end[n] = i
			n++
		}
	}
	if n < len(end) {
		return parsef("raslog: want 8 fields, got %d", n+1)
	}
	if _, _, ok := scanInt(b, 0); !ok {
		return parsef("raslog: bad record id %q", b[:end[0]])
	}
	if end[1] == end[0]+1 {
		return parsef("raslog: empty event type")
	}
	stamp := b[end[1]+1 : end[2]]
	if _, ok := parseStamp(stamp); !ok {
		return parsef("raslog: bad timestamp %q", stamp)
	}
	if _, _, ok := scanInt(b, end[2]+1); !ok {
		return parsef("raslog: bad job id %q", b[end[2]+1:end[3]])
	}
	if _, _, ok := scanLocation(b, end[3]+1); !ok {
		return parsef("raslog: malformed location %q", b[end[3]+1:end[4]])
	}
	if _, _, ok := scanSeverity(b, end[5]+1); !ok {
		return parsef("raslog: unknown severity %q", b[end[5]+1:end[6]])
	}
	return parsef("raslog: time %s out of range", stamp)
}

// scanInt parses the id field at b[i:] as strconv.ParseInt does, for
// an optional sign and one to nineteen digits, then '|'. It returns the
// index past the '|'.
func scanInt(b []byte, i int) (int64, int, bool) {
	neg := false
	if i < len(b) && (b[i] == '-' || b[i] == '+') {
		neg = b[i] == '-'
		i++
	}
	var n uint64
	j := i
	for ; j < len(b) && j-i <= 19; j++ {
		d := b[j] - '0'
		if d > 9 {
			break
		}
		n = n*10 + uint64(d)
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++ // math.MinInt64
	}
	if j == i || j-i > 19 || j == len(b) || b[j] != '|' || n > limit {
		return 0, 0, false
	}
	if neg {
		return -int64(n), j + 1, true
	}
	return int64(n), j + 1, true
}

// scanTime parses the TIME field at b[i:], a stamp parseStamp takes in
// the range TimeInRange admits, then '|'. CMCS stamps whole seconds, so
// raw logs carry long same-second runs; the last stamp is cached once
// one has decoded. It returns the index past the '|'.
func (r *Reader) scanTime(b []byte, i int) (time.Time, int, bool) {
	j := i + len(timeLayout)
	if j >= len(b) || b[j] != '|' {
		return time.Time{}, 0, false
	}
	b = b[i:j]
	if r.stamped && string(b) == string(r.stamp[:]) {
		return r.stampTime, j + 1, true
	}
	sec, ok := parseStamp(b)
	if !ok || sec < 0 || sec > maxSec {
		return time.Time{}, 0, false
	}
	copy(r.stamp[:], b)
	r.stampTime = time.Unix(sec, 0).UTC() // the time.Time time.Date builds, without its calendar walk
	r.stamped = true
	return r.stampTime, j + 1, true
}

// parseStamp parses b as time.ParseInLocation(timeLayout, b, time.UTC)
// does when b has exactly the layout's shape, every number at full
// width, and returns its unix second, or -1 for a year before 1970.
// (time.ParseInLocation also takes a one-digit hour and fractional
// seconds, which Writer never spells.)
func parseStamp(b []byte) (int64, bool) {
	if len(b) != len(timeLayout) || b[4] != '-' || b[7] != '-' || b[10] != ' ' || b[13] != ':' || b[16] != ':' {
		return 0, false
	}
	century, yy := digits2(b[0:2]), digits2(b[2:4])
	month, day := digits2(b[5:7]), digits2(b[8:10])
	hour, minute, sec := digits2(b[11:13]), digits2(b[14:16]), digits2(b[17:19])
	year := 100*century + yy
	if century < 0 || yy < 0 || month < 1 || month > 12 || day < 1 || day > daysIn(month, year) ||
		hour < 0 || hour > 23 || minute < 0 || minute > 59 || sec < 0 || sec > 59 {
		return 0, false
	}
	if year < 1970 {
		return -1, true
	}
	return 86400*daysFromCivil(year, month, day) + int64(3600*hour+60*minute+sec), true
}

// daysFromCivil is the number of days from 1970-01-01 to the given
// proleptic Gregorian date, for years from 1 on: the era-of-400-years
// arithmetic of Hinnant's days_from_civil.
func daysFromCivil(year, month, day int) int64 {
	if month <= 2 {
		year--
	}
	era := year / 400
	yoe := year - 400*era                     // [0, 399]
	doy := (153*((month+9)%12)+2)/5 + day - 1 // [0, 365], from March 1
	doe := 365*yoe + yoe/4 - yoe/100 + doy    // [0, 146096]
	return int64(146097*era+doe) - 719468     // 719468: days from 0000-03-01 to 1970-01-01
}

// scanLocation parses the LOCATION field at b[i:] in the spellings
// Location.AppendTo emits — "?", a rack of two or more digits, and
// below it a midplane, a node card with its compute or I/O chip, a
// link card or the service card — for the locations encodable admits,
// then '|'. It returns the index past the '|'.
func scanLocation(b []byte, i int) (loc Location, next int, ok bool) {
	switch at(b, i) {
	case '?':
		i++
	case 'R':
		if loc.Rack, i, ok = scanDigits(b, i+1, 2); !ok {
			return Location{}, 0, false
		}
		loc.Kind = KindRack
		if at(b, i) != '-' {
			break
		}
		if at(b, i+1) != 'M' || (at(b, i+2) != '0' && at(b, i+2) != '1') {
			return Location{}, 0, false
		}
		loc.Kind, loc.Midplane = KindMidplane, int(b[i+2]-'0')
		if i += 3; at(b, i) != '-' {
			break
		}
		switch at(b, i+1) {
		case 'N':
			loc.Kind = KindNodeCard
			if loc.Card, i, ok = scanDigits(b, i+2, 2); !ok {
				return Location{}, 0, false
			}
			if at(b, i) != '-' {
				break
			}
			switch at(b, i+1) {
			case 'C':
				loc.Kind = KindComputeChip
			case 'I':
				loc.Kind = KindIONode
			default:
				return Location{}, 0, false
			}
			if loc.Chip, i, ok = scanDigits(b, i+2, 2); !ok {
				return Location{}, 0, false
			}
		case 'L':
			loc.Kind = KindLinkCard
			if loc.Card, i, ok = scanDigits(b, i+2, 1); !ok {
				return Location{}, 0, false
			}
		case 'S':
			loc.Kind = KindServiceCard
			i += 2
		default:
			return Location{}, 0, false
		}
	default:
		return Location{}, 0, false
	}
	if at(b, i) != '|' {
		return Location{}, 0, false
	}
	return loc, i + 1, true
}

// at is b[i], or 0 past the end of b.
func at(b []byte, i int) byte {
	if i < len(b) {
		return b[i]
	}
	return 0
}

// scanDigits reads a run of least to ten digits at b[i:], a number no
// greater than wireMaxLocField, and returns the index past it.
func scanDigits(b []byte, i, least int) (int, int, bool) {
	var n uint64
	j := i
	for ; j < len(b) && j-i <= 10; j++ {
		d := b[j] - '0'
		if d > 9 {
			break
		}
		n = n*10 + uint64(d)
	}
	if j-i < least || j-i > 10 || n > wireMaxLocField {
		return 0, 0, false
	}
	return int(n), j, true
}

// scanSeverity matches the SEVERITY field at b[i:] against the six
// names, then '|', and returns the index past the '|'.
func scanSeverity(b []byte, i int) (Severity, int, bool) {
	for s, name := range &severityNames {
		if j := i + len(name); j < len(b) && b[j] == '|' && string(b[i:j]) == name {
			return Severity(s), j + 1, true
		}
	}
	return 0, 0, false
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

// parsef builds the decoders' errors.
func parsef(format string, args ...any) error {
	//bglvet:ignore hotpathalloc error construction runs only for undecodable lines, which decode has already refused
	return fmt.Errorf(format, args...)
}

// WriteFile writes events to path in the log dialect.
func WriteFile(path string, events []Event) error {
	return writeEvents(path, events, NewWriter)
}

// writeEvents creates path and writes events to it through the encoder
// newWriter wraps around the file — the log dialect's or the wire's.
// It stops at the first record the encoder refuses, and the file then
// holds exactly the records before it; the file is closed either way.
func writeEvents[W interface {
	Write(*Event) error
	Flush() error
}](path string, events []Event, newWriter func(io.Writer) W) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := newWriter(f)
	for i := 0; i < len(events) && err == nil; i++ {
		err = w.Write(&events[i])
	}
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
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
