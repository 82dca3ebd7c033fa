package raslog_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"bglpred/internal/bglsim"
	"bglpred/internal/raslog"
)

// The reference: the text reader exactly as it stood before Reader
// learned to parse from its line buffer — bufio.Scanner, strings.SplitN,
// strconv, time.ParseInLocation, fmt — kept here so the zero-alloc
// paths have an oracle that shares none of their code. Three rules were
// added since, and one branch went with the NDJSON spelling (a line
// that opens with '{' is split on its pipes like any other):
//
//   - a record whose time is before the Unix epoch or after the last
//     nanosecond int64 nanoseconds since it hold (2262-04-11) is
//     undecodable;
//   - so is one with an empty TYPE, which the writers refuse;
//   - and so is a RECID, TIME, JOBID or LOCATION outside the dialect:
//     the spellings Writer emits, matched by the ref*Spelling patterns
//     below with the slack Reader allows (a sign and leading zeros on
//     the ids, leading zeros on the location numbers), and location
//     numbers no greater than 2^31, the most the wire carries. The
//     field's error is the one its parser gives.
//
// Reader must agree with it on every event, every error text, every
// LineError and every Raw/Line answer, read through Read and through
// NextEvent and DecodeEvent alike; and every event both accept must be
// one WireWriter writes.

const refTimeLayout = "2006-01-02 15:04:05"

var (
	refIDSpelling       = regexp.MustCompile(`^[+-]?[0-9]{1,19}$`)
	refTimeSpelling     = regexp.MustCompile(`^[0-9]{4}-[0-9]{2}-[0-9]{2} [0-9]{2}:[0-9]{2}:[0-9]{2}$`)
	refLocationSpelling = regexp.MustCompile(`^(\?|R[0-9]{2,10}(-M[01](-N[0-9]{2,10}(-[CI][0-9]{2,10})?|-L[0-9]{1,10}|-S)?)?)$`)
)

// refMaxLocField is the largest location number the dialect spells.
const refMaxLocField = 1 << 31

func refParseLocation(text string) (raslog.Location, error) {
	var loc raslog.Location
	if text == "" || text == "?" {
		return loc, nil
	}
	parts := strings.Split(text, "-")
	bad := func() (raslog.Location, error) {
		return raslog.Location{}, fmt.Errorf("raslog: malformed location %q", text)
	}
	if len(parts[0]) < 2 || parts[0][0] != 'R' {
		return bad()
	}
	n, err := strconv.Atoi(parts[0][1:])
	if err != nil || n < 0 {
		return bad()
	}
	loc = raslog.Location{Kind: raslog.KindRack, Rack: n}
	if len(parts) == 1 {
		return loc, nil
	}
	if len(parts[1]) != 2 || parts[1][0] != 'M' || (parts[1][1] != '0' && parts[1][1] != '1') {
		return bad()
	}
	loc.Kind = raslog.KindMidplane
	loc.Midplane = int(parts[1][1] - '0')
	if len(parts) == 2 {
		return loc, nil
	}
	seg := parts[2]
	if seg == "" {
		return bad()
	}
	switch {
	case seg == "S":
		if len(parts) != 3 {
			return bad()
		}
		loc.Kind = raslog.KindServiceCard
		return loc, nil
	case seg[0] == 'L':
		if len(parts) != 3 {
			return bad()
		}
		n, err := strconv.Atoi(seg[1:])
		if err != nil || n < 0 {
			return bad()
		}
		loc.Kind = raslog.KindLinkCard
		loc.Card = n
		return loc, nil
	case seg[0] == 'N':
		n, err := strconv.Atoi(seg[1:])
		if err != nil || n < 0 {
			return bad()
		}
		loc.Kind = raslog.KindNodeCard
		loc.Card = n
	default:
		return bad()
	}
	if len(parts) == 3 {
		return loc, nil
	}
	if len(parts) != 4 || len(parts[3]) < 2 {
		return bad()
	}
	n, err = strconv.Atoi(parts[3][1:])
	if err != nil || n < 0 {
		return bad()
	}
	switch parts[3][0] {
	case 'C':
		loc.Kind = raslog.KindComputeChip
	case 'I':
		loc.Kind = raslog.KindIONode
	default:
		return bad()
	}
	loc.Chip = n
	return loc, nil
}

func refParseSeverity(text string) (raslog.Severity, error) {
	for sev := raslog.Severity(0); sev.Valid(); sev++ {
		if sev.String() == text {
			return sev, nil
		}
	}
	return 0, fmt.Errorf("raslog: unknown severity %q", text)
}

func refParseLine(line string) (raslog.Event, error) {
	fields := strings.SplitN(line, "|", 8)
	if len(fields) != 8 {
		return raslog.Event{}, fmt.Errorf("raslog: want 8 fields, got %d", len(fields))
	}
	recID, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil || !refIDSpelling.MatchString(fields[0]) {
		return raslog.Event{}, fmt.Errorf("raslog: bad record id %q", fields[0])
	}
	if fields[1] == "" {
		return raslog.Event{}, errors.New("raslog: empty event type")
	}
	ts, err := time.ParseInLocation(refTimeLayout, fields[2], time.UTC)
	if err != nil || !refTimeSpelling.MatchString(fields[2]) {
		return raslog.Event{}, fmt.Errorf("raslog: bad timestamp %q", fields[2])
	}
	jobID, err := strconv.ParseInt(fields[3], 10, 64)
	if err != nil || !refIDSpelling.MatchString(fields[3]) {
		return raslog.Event{}, fmt.Errorf("raslog: bad job id %q", fields[3])
	}
	loc, err := refParseLocation(fields[4])
	if err == nil && (!refLocationSpelling.MatchString(fields[4]) || max(loc.Rack, loc.Card, loc.Chip) > refMaxLocField) {
		err = fmt.Errorf("raslog: malformed location %q", fields[4])
	}
	if err != nil {
		return raslog.Event{}, err
	}
	sev, err := refParseSeverity(fields[6])
	if err != nil {
		return raslog.Event{}, err
	}
	return raslog.Event{
		RecID: recID, Type: fields[1], Time: ts, JobID: jobID, Location: loc,
		Facility: fields[5], Severity: sev, EntryData: fields[7],
	}, nil
}

type refReader struct {
	sc      *bufio.Scanner
	line    int64
	last    string
	lenient bool
	skipped int64
	onSkip  func(raslog.LineError)
}

func newRefReader(r io.Reader) *refReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	return &refReader{sc: sc}
}

func (r *refReader) Lenient(onSkip func(raslog.LineError)) { r.lenient, r.onSkip = true, onSkip }
func (r *refReader) SkippedLines() int64                   { return r.skipped }
func (r *refReader) Raw() string                           { return r.last }
func (r *refReader) Line() int64                           { return r.line }

func (r *refReader) Read() (raslog.Event, error) {
	for r.sc.Scan() {
		r.line++
		line := r.sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		r.last = line
		ev, err := refParseLine(line)
		if err == nil && (ev.Time.Before(time.Unix(0, 0)) || ev.Time.After(time.Unix(0, math.MaxInt64))) {
			ev, err = raslog.Event{}, fmt.Errorf("raslog: time %s out of range", ev.Time.UTC().Format(refTimeLayout))
		}
		if err != nil {
			le := raslog.LineError{Line: r.line, Raw: line, Err: err}
			if r.lenient {
				r.skipped++
				if r.onSkip != nil {
					r.onSkip(le)
				}
				continue
			}
			return raslog.Event{}, &le
		}
		return ev, nil
	}
	if err := r.sc.Err(); err != nil {
		return raslog.Event{}, err
	}
	return raslog.Event{}, io.EOF
}

// textReader is what both readers offer.
type textReader interface {
	Read() (raslog.Event, error)
	Raw() string
	Line() int64
	SkippedLines() int64
}

// step is everything observable about one Read call.
type step struct {
	ev      raslog.Event
	err     string // "" for a decoded record
	errLine int64  // the *LineError's fields, when err is one
	errRaw  string
	raw     string // Raw() and Line() right after the call
	line    int64
}

func (s step) String() string {
	return fmt.Sprintf("{ev:%+v err:%q errLine:%d errRaw:%q raw:%q line:%d}", s.ev, s.err, s.errLine, s.errRaw, s.raw, s.line)
}

// drain reads rd to its first error (io.EOF included) and returns one
// step per call, that last one included.
func drain(rd textReader) []step {
	var steps []step
	for {
		ev, err := rd.Read()
		s := step{ev: ev, raw: rd.Raw(), line: rd.Line()}
		if err != nil {
			s.err = err.Error()
			var le *raslog.LineError
			if errors.As(err, &le) {
				s.errLine, s.errRaw = le.Line, le.Raw
			}
		}
		steps = append(steps, s)
		if err != nil {
			return steps
		}
	}
}

// skipText flattens a LineError for comparison.
func skipText(le raslog.LineError) string {
	return fmt.Sprintf("%d %q %v", le.Line, le.Raw, le.Err)
}

// twoStep reads through NextEvent and DecodeEvent, as serve's ingest
// loop does, into a slot poisoned before every decode, so a field
// DecodeEvent leaves unwritten shows, and holds NextEvent's location
// to the one DecodeEvent writes, before and after it runs. It offers
// what Read offers.
type twoStep struct {
	*raslog.Reader
	lenient bool
}

var poison = raslog.Event{
	RecID: -77, Type: "poison", Time: time.Unix(1, 1), JobID: -77,
	Location:  raslog.Location{Kind: raslog.KindIONode, Rack: 77, Midplane: 1, Card: 77, Chip: 77},
	EntryData: "poison", Facility: "poison", Severity: raslog.Severity(77),
}

func (t twoStep) Read() (raslog.Event, error) {
	for {
		loc, err := t.NextEvent()
		if err != nil {
			return raslog.Event{}, err
		}
		said := *loc
		slot := poison
		if err := t.DecodeEvent(&slot); err != nil {
			if t.lenient {
				continue // skipped, and handed to the skip hook
			}
			return raslog.Event{}, err
		}
		if slot.Location != said || *loc != said {
			return raslog.Event{}, fmt.Errorf("NextEvent said %+v, DecodeEvent %+v, and the pointer holds %+v after it", said, slot.Location, *loc)
		}
		return slot, nil
	}
}

// checkAgainstReference runs body through rd (already armed on it) and
// through a fresh reference reader, in the given mode, and fails on the
// first observable difference. With twoSteps it reads rd through
// NextEvent and DecodeEvent rather than Read.
func checkAgainstReference(t testing.TB, what string, rd *raslog.Reader, src func() io.Reader, lenient, twoSteps bool) {
	t.Helper()
	var gotSkips, wantSkips []string
	ref := newRefReader(src())
	if lenient {
		rd.Lenient(func(le raslog.LineError) { gotSkips = append(gotSkips, skipText(le)) })
		ref.Lenient(func(le raslog.LineError) { wantSkips = append(wantSkips, skipText(le)) })
	}
	if rd.Raw() != "" || rd.Line() != 0 || rd.SkippedLines() != 0 {
		t.Fatalf("%s: reader not pristine before the first Read: raw=%q line=%d skipped=%d", what, rd.Raw(), rd.Line(), rd.SkippedLines())
	}
	var under textReader = rd
	if twoSteps {
		under = twoStep{Reader: rd, lenient: lenient}
	}
	got, want := drain(under), drain(ref)
	ww := raslog.NewWireWriter(io.Discard)
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("%s (lenient=%v, two steps=%v): Read #%d differs:\n got %v\nwant %v", what, lenient, twoSteps, i+1, got[i], want[i])
		}
		if got[i].err == "" {
			if err := ww.Write(&got[i].ev); err != nil {
				t.Fatalf("%s: Read #%d decoded %+v, which WireWriter refuses: %v", what, i+1, got[i].ev, err)
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s (lenient=%v, two steps=%v): %d Reads, reference %d", what, lenient, twoSteps, len(got), len(want))
	}
	if rd.SkippedLines() != ref.SkippedLines() {
		t.Fatalf("%s: SkippedLines %d, reference %d", what, rd.SkippedLines(), ref.SkippedLines())
	}
	if strings.Join(gotSkips, "\n") != strings.Join(wantSkips, "\n") {
		t.Fatalf("%s: skip callbacks differ:\n got %q\nwant %q", what, gotSkips, wantSkips)
	}
	// A stream-level verdict (not a strict reader's LineError, which
	// leaves the stream readable) is final.
	if end := got[len(got)-1]; end.errLine == 0 {
		if _, err := under.Read(); err == nil || err.Error() != end.err {
			t.Fatalf("%s: Read after %q returned %v", what, end.err, err)
		}
	}
}

// checkBody compares the two readers on body, strict and lenient,
// through Read and through NextEvent/DecodeEvent, whole and under
// awkward read patterns.
func checkBody(t testing.TB, what string, body []byte) {
	t.Helper()
	for _, twoSteps := range []bool{false, true} {
		for _, lenient := range []bool{false, true} {
			whole := func() io.Reader { return bytes.NewReader(body) }
			checkAgainstReference(t, what, raslog.NewReader(whole()), whole, lenient, twoSteps)
		}
		if len(body) > 1<<12 {
			continue // the byte-at-a-time patterns below are for the small cases
		}
		for name, wrap := range map[string]func(io.Reader) io.Reader{
			"one byte":      iotest.OneByteReader,
			"data with EOF": iotest.DataErrReader,
			"timeout":       iotest.TimeoutReader,
		} {
			src := func() io.Reader { return wrap(bytes.NewReader(body)) }
			checkAgainstReference(t, what+" / "+name, raslog.NewReader(src()), src, true, twoSteps)
		}
	}
}

const goodLine = "1|RAS|2005-01-21 00:00:00|42|R01-M0-N02-C03|KERNEL|FATAL|uncorrectable torus error"

// withField returns goodLine with field i replaced.
func withField(i int, v string) string {
	f := strings.Split(goodLine, "|")
	f[i] = v
	return strings.Join(f, "|")
}

// edgeLines is the seed corpus: one line per corner of the accept set.
func edgeLines() []string {
	lines := []string{
		goodLine,
		"", "#comment", " #not a comment", "\r", "|", "||||||||", "|||||||", "||||||", "a|b|c",
		goodLine + "|stray|pipes|stay in entry data",
		withField(1, ""), withField(5, ""), withField(7, ""),
		withField(7, "caf\xc3\xa9 \xff\xfe \x00 bytes"),
		// NDJSON objects: the pipe dialect is the one text spelling, so
		// each of these is an undecodable line.
		`{"recid":7,"type":"RAS","time":"2005-01-21 00:00:01","jobid":-1,"location":"R00-M1-L2","facility":"LINKCARD","severity":"WARNING","entry_data":"x"}`,
		`{"recid":8,"type":"RAS","time":"2005-01-21T00:00:02Z","jobid":3,"location":"?","facility":"APP","severity":"INFO","entry_data":"pipe | inside json"}`,
		`{"recid":`, `{}`, `{"recid":9,"time":"nope"}`,
		// Nineteen NUL bytes are the shape of a timestamp, and what an
		// empty same-second cache holds.
		withField(2, strings.Repeat("\x00", 19)),
		// Split on its pipes, this object's fifth field is a location.
		`{"recid":9,"type":"RAS","time":"2005-01-21 00:00:03","jobid":1,"location":"R00-M1-L2","facility":"APP","severity":"INFO","entry_data":"||||R07-M1|||x"}`,
		// TYPE and FACILITY are matched in place against the previous
		// record's value followed by '|': a longer value it prefixes, a
		// shorter one prefixing it, and back.
		goodLine, withField(1, "RASX"), withField(1, "RA"), goodLine,
		withField(5, "KERNELX"), withField(5, "KERNE"), goodLine,
		withField(7, "a|b"), withField(7, "|"),
		// CR before the LF, and a CR the LF does not follow.
		goodLine + "\r\n" + withField(0, "2") + "\r\n", goodLine + "\r",
	}
	for _, id := range []string{"0", "+5", "-5", "-1", "-0", "+", "-", "", "007", " 1", "1 ", "1_000", "0x10", "1e3", "12a", "+-1",
		"999999999999999999", "-999999999999999999", "+999999999999999999", "123456789012345678", "1000000000000000000", "-1234567890123456789",
		"9223372036854775807", "-9223372036854775808", "9223372036854775808", "99999999999999999999",
		"-9223372036854775809", "+9223372036854775807", "0000000000000000001", "00000000000000000001"} {
		lines = append(lines, withField(0, id), withField(3, id))
	}
	for _, ts := range []string{
		"2005-01-21 1:02:03", "2005-01-21 01:2:03", "2005-1-21 01:02:03", "2005-01-21 00:00:00.5",
		"2005-01-21 00:00:00,25", "2005-01-21 00:00:00.", "2005-01-21 00:00:00 ", " 2005-01-21 00:00:00",
		"2005-02-30 00:00:00", "2005-02-29 00:00:00", "2004-02-29 00:00:00", "1900-02-29 00:00:00",
		"2000-02-29 00:00:00", "2005-04-31 00:00:00", "2005-04-30 23:59:59", "2005-12-31 23:59:59",
		"2005-13-01 00:00:00", "2005-00-10 00:00:00", "2005-01-00 00:00:00", "2005-01-32 00:00:00",
		"2005-01-21 24:00:00", "2005-01-21 23:60:00", "2005-01-21 23:59:60", "0000-01-01 00:00:00",
		"9999-12-31 23:59:59", "2005/01/21 00:00:00", "2005-01-21T00:00:00", "2005-01-21 00-00-00",
		"2oo5-01-21 00:00:00", "2005-01-21 00:00:0x", "+005-01-21 00:00:00", "2005-01-21 -1:00:00", "",
		// Both ends of the range, the seconds past them, and years
		// far outside it.
		"2261-12-31 23:59:59", "2262-01-01 00:00:00", "2262-04-11 23:47:16", "2262-04-11 23:47:17",
		"1678-01-01 00:00:00", "1677-12-31 23:59:59", "1970-01-01 00:00:00", "1969-12-31 23:59:59",
		"2000-03-01 00:00:00", "2100-02-28 23:59:59", "2100-03-01 00:00:00",
	} {
		lines = append(lines, withField(2, ts))
	}
	for _, loc := range []string{
		"", "?", "??", "R00", "R07-M1", "R07-M1-N04", "R07-M1-N04-C32", "R07-M1-N04-I00", "R07-M1-L2", "R07-M1-S",
		"R7", "R007-M1", "R+7", "R+", "R", "R-1", "R00-", "-M0", "R00-M2", "R00-M", "R00-M01", "R00-m0",
		"R00-M0-X9", "R00-M0-S5", "R00-M0-S-C01", "R00-M0-L2-C01", "R00-M0-L", "R00-M0-L+3", "R00-M0-N", "R00-M0-NX",
		"R00-M0-N04-C", "R00-M0-N04-Z9", "R00-M0-N04-C32-Z9", "R00--N01", "R00-M0--C01", "R99-M1-N99-C99",
		"R9223372036854775807", "R9223372036854775808", "R00000000000000000000000007-M1", "R00-M0-N04-C1x", "r00",
		// Every spelling AppendTo emits, racks and cards past two digits
		// up to 2^31, and numbers past it, which the writers refuse.
		"R100", "R100-M0", "R100-M1-N15-C31", "R63-M1-N100-I07", "R00-M0-L10", "R05-M0-S", "R123456789", "R1234567890",
		"R2147483648", "R2147483649", "R4294967296-M0", "R00-M0-N2147483648-C2147483648", "R00-M1-N04-I2147483649",
		"R00-M1-L2147483648", "R00-M1-L2147483649", "R02147483648", "R0000000007",
		// Leading zeros Reader takes; one-digit numbers and signs it
		// does not.
		"R007", "R00-M1-L03", "R3-M1", "R+03", "R00-M1-N4", "R00-M1-N04-C3", "R00-M1-N+4", "R00-M1-L+3", "R0",
	} {
		lines = append(lines, withField(4, loc))
	}
	for _, sev := range []string{"INFO", "WARNING", "SEVERE", "ERROR", "FATAL", "FAILURE", "fatal", "", "FATAL ", "Severity(9)"} {
		lines = append(lines, withField(6, sev))
	}
	return lines
}

// TestParsersMatchReference checks ParseSeverity, which the CFDR
// reader keeps, one value at a time, error text included.
func TestParsersMatchReference(t *testing.T) {
	same := func(what string, got, want any, gerr, werr error) {
		t.Helper()
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) || (gerr == nil && got != want) {
			t.Errorf("%s: got (%+v, %v), reference (%+v, %v)", what, got, gerr, want, werr)
		}
	}
	for _, line := range edgeLines() {
		f := strings.SplitN(line, "|", 8)
		if len(f) != 8 {
			continue
		}
		gs, gerr := raslog.ParseSeverity(f[6])
		ws, werr := refParseSeverity(f[6])
		same(fmt.Sprintf("ParseSeverity(%q)", f[6]), gs, ws, gerr, werr)
	}
}

// TestReaderMatchesReferenceOnEdgeCases runs the seed corpus through
// both readers: each line alone, then all of them as one body under
// each line-ending convention.
func TestReaderMatchesReferenceOnEdgeCases(t *testing.T) {
	lines := edgeLines()
	for _, line := range lines {
		checkBody(t, fmt.Sprintf("%q", line), []byte(line))
		checkBody(t, fmt.Sprintf("%q+LF", line), []byte(line+"\n"))
	}
	checkBody(t, "corpus LF", []byte(strings.Join(lines, "\n")+"\n"))
	checkBody(t, "corpus CRLF", []byte(strings.Join(lines, "\r\n")+"\r\n"))
	checkBody(t, "corpus unterminated", []byte(strings.Join(lines, "\n")))
	checkBody(t, "corpus CR CR LF", []byte(strings.Join(lines, "\r\r\n")))
}

// TestReaderLineCap pins the 1 MiB cap: a line whose terminator is the
// 2^20th byte decodes; one byte more fails the stream with
// bufio.ErrTooLong after the records before it.
func TestReaderLineCap(t *testing.T) {
	const maxLine = 1 << 20
	pad := func(n int) string { return goodLine + strings.Repeat("x", n-len(goodLine)) }
	for _, c := range []struct {
		name    string
		body    string
		records int
		tooLong bool
	}{
		{"at the cap", goodLine + "\n" + pad(maxLine-1) + "\n" + goodLine + "\n", 3, false},
		{"one over", goodLine + "\n" + pad(maxLine) + "\n" + goodLine + "\n", 1, true},
		{"far over", goodLine + "\n" + pad(3*maxLine) + "\n", 1, true},
		{"unterminated under the cap", goodLine + "\n" + pad(maxLine-1), 2, false},
		{"unterminated at the cap", goodLine + "\n" + pad(maxLine), 1, true},
	} {
		checkBody(t, c.name, []byte(c.body))
		rd := raslog.NewReader(strings.NewReader(c.body))
		evs, err := rd.ReadAll()
		if len(evs) != c.records || (err != nil) != c.tooLong || (c.tooLong && !errors.Is(err, bufio.ErrTooLong)) {
			t.Errorf("%s: %d records, err %v; want %d records, tooLong=%v", c.name, len(evs), err, c.records, c.tooLong)
		}
	}
}

// simLog renders a generated bglsim log in the pipe dialect.
func simLog(t testing.TB, scale float64) ([]raslog.Event, []byte) {
	t.Helper()
	gen, err := bglsim.Generate(bglsim.ANLProfile().Scaled(scale))
	if err != nil {
		t.Fatal(err)
	}
	return gen.Events, writeBody(t, gen.Events)
}

// writeBody renders events in the pipe dialect.
func writeBody(t testing.TB, events []raslog.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := raslog.NewWriter(&buf)
	for i := range events {
		if err := w.Write(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReaderMatchesReferenceOnGeneratedLog is the differential over
// every line of a bglsim log — and the Writer→Reader round trip: what
// comes back is what was generated.
func TestReaderMatchesReferenceOnGeneratedLog(t *testing.T) {
	events, body := simLog(t, 0.01)
	checkBody(t, "bglsim log", body)

	got, err := raslog.NewReader(bytes.NewReader(body)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("read back %d of %d records", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("record %d round trip:\n got %+v\nwant %+v", i, got[i], events[i])
		}
	}

	// The same log with damage: every 97th line gets one byte replaced,
	// and edge-case lines are spliced in between.
	rng := rand.New(rand.NewPCG(14, 1))
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	edges := edgeLines()
	var damaged bytes.Buffer
	for i, line := range lines {
		if i%97 == 0 {
			line = append([]byte(nil), line...)
			line[rng.IntN(len(line))] = "|-:x9 \r#{"[rng.IntN(9)]
		}
		damaged.Write(line)
		damaged.WriteByte('\n')
		if i%211 == 0 {
			damaged.WriteString(edges[rng.IntN(len(edges))] + "\n")
		}
	}
	checkBody(t, "damaged bglsim log", damaged.Bytes())
}

// TestReaderResetLeaksNothing reuses one Reader across bodies the way
// serve's pool does, through Read in the first round and through
// NextEvent/DecodeEvent in the second. Whatever the previous body left
// behind — a failed stream, a lenient hook, skip counts, a grown
// buffer, a last line, a cached timestamp or field value —
// each body must read exactly as a fresh reference reader reads it.
func TestReaderResetLeaksNothing(t *testing.T) {
	_, sim := simLog(t, 0.002)
	long := goodLine + strings.Repeat("y", 200<<10)
	bodies := []string{
		goodLine + "\n" + withField(0, "2") + "\n", // same second twice
		"garbage\n" + goodLine + "\nmore garbage\n",
		goodLine + "\n" + strings.Repeat("z", 1<<20) + "\n" + goodLine + "\n", // fails mid-stream
		withField(2, "2005-01-21 00:00:00") + "\n",                            // the stamp the first body cached
		long + "\n" + goodLine,                                                // grows the buffer; unterminated
		string(sim),
		"",
		strings.Join(edgeLines(), "\r\n"),
	}
	rd := raslog.NewReader(strings.NewReader("1|never read"))
	leaked := 0
	for round := 0; round < 2; round++ {
		for i, body := range bodies {
			lenient := (i+round)%2 == 0
			rd.Reset(strings.NewReader(body))
			src := func() io.Reader { return strings.NewReader(body) }
			checkAgainstReference(t, fmt.Sprintf("round %d body %d", round, i), rd, src, lenient, round == 1)
			if !lenient {
				// A hook armed now must not fire for a later strict body.
				rd.Reset(strings.NewReader("junk\n"))
				rd.Lenient(func(raslog.LineError) { leaked++ })
				if _, err := rd.Read(); err != io.EOF {
					t.Fatalf("lenient read of junk: %v", err)
				}
			}
		}
	}
	if want := len(bodies); leaked != want {
		t.Fatalf("probe hook fired %d times, want %d (once per strict body)", leaked, want)
	}
}

// TestReaderZeroAllocs pins the allocation budget: a warm Reader,
// re-armed with Reset as serve's pool re-arms it, decodes a
// 4096-record body without allocating — through Read, and through
// NextEvent/DecodeEvent into a batch as serve's ingest loop does — the
// mirror of TestWireDecodeZeroAllocs. The body carries NoJob records
// and every location kind Writer spells.
func TestReaderZeroAllocs(t *testing.T) {
	events, _ := simLog(t, 0.002)
	if len(events) < 4096 {
		t.Fatalf("generated only %d records", len(events))
	}
	events = events[:4096]
	locs := []raslog.Location{
		{},
		{Kind: raslog.KindRack, Rack: 100},
		{Kind: raslog.KindMidplane, Rack: 3, Midplane: 1},
		{Kind: raslog.KindNodeCard, Rack: 0, Midplane: 0, Card: 15},
		{Kind: raslog.KindComputeChip, Rack: 12, Midplane: 1, Card: 4, Chip: 31},
		{Kind: raslog.KindIONode, Rack: 2, Midplane: 0, Card: 9, Chip: 0},
		{Kind: raslog.KindLinkCard, Rack: 0, Midplane: 0, Card: 10},
		{Kind: raslog.KindServiceCard, Rack: 5, Midplane: 1},
	}
	for i := range events {
		if i%3 == 0 {
			events[i].JobID = raslog.NoJob
		}
		if i%5 == 0 {
			events[i].Location = locs[i/5%len(locs)]
		}
	}
	body := writeBody(t, events)

	var br bytes.Reader
	rd := raslog.NewReader(&br)
	batch := make([]raslog.Event, 4096)
	for name, decode := range map[string]func(i int) error{
		"Read": func(int) error {
			_, err := rd.Read()
			return err
		},
		"NextEvent/DecodeEvent": func(i int) error {
			if _, err := rd.NextEvent(); err != nil {
				return err
			}
			return rd.DecodeEvent(&batch[i])
		},
	} {
		run := func() {
			br.Reset(body)
			rd.Reset(&br)
			n := 0
			for {
				err := decode(n)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				n++
			}
			if n != 4096 {
				t.Fatalf("%s: decoded %d, want 4096", name, n)
			}
		}
		run() // warm the caches
		if avg := testing.AllocsPerRun(20, run); avg != 0 {
			t.Fatalf("steady-state text decode through %s allocates %.1f allocs per 4096-record body, want 0", name, avg)
		}
	}
	for i := range batch {
		if batch[i] != events[i] {
			t.Fatalf("record %d decoded into its slot as %+v, want %+v", i, batch[i], events[i])
		}
	}
}

// FuzzReaderMatchesReference explores bodies beyond the seed corpus.
func FuzzReaderMatchesReference(f *testing.F) {
	lines := edgeLines()
	for _, line := range lines {
		f.Add([]byte(line))
	}
	f.Add([]byte(strings.Join(lines[:12], "\n")))
	f.Add([]byte(goodLine + "\r\n" + withField(0, "2") + "\r\n#c\r\n\r\n" + lines[15]))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkBody(t, "fuzz body", body)
	})
}

// refLocationString is Location.String as it was written with fmt.
func refLocationString(l raslog.Location) string {
	switch l.Kind {
	case raslog.KindRack:
		return fmt.Sprintf("R%02d", l.Rack)
	case raslog.KindMidplane:
		return fmt.Sprintf("R%02d-M%d", l.Rack, l.Midplane)
	case raslog.KindNodeCard:
		return fmt.Sprintf("R%02d-M%d-N%02d", l.Rack, l.Midplane, l.Card)
	case raslog.KindComputeChip:
		return fmt.Sprintf("R%02d-M%d-N%02d-C%02d", l.Rack, l.Midplane, l.Card, l.Chip)
	case raslog.KindIONode:
		return fmt.Sprintf("R%02d-M%d-N%02d-I%02d", l.Rack, l.Midplane, l.Card, l.Chip)
	case raslog.KindLinkCard:
		return fmt.Sprintf("R%02d-M%d-L%d", l.Rack, l.Midplane, l.Card)
	case raslog.KindServiceCard:
		return fmt.Sprintf("R%02d-M%d-S", l.Rack, l.Midplane)
	default:
		return "?"
	}
}

func TestLocationStringMatchesFmt(t *testing.T) {
	vals := []int{0, 1, 7, 9, 10, 42, 99, 100, 12345, -1, -9, -10, -123}
	for kind := raslog.KindUnknown - 1; kind <= raslog.KindServiceCard+1; kind++ {
		for _, a := range vals {
			for _, b := range vals {
				loc := raslog.Location{Kind: kind, Rack: a, Midplane: b, Card: a, Chip: b}
				if got, want := loc.String(), refLocationString(loc); got != want {
					t.Fatalf("%#v: String() = %q, fmt spelling %q", loc, got, want)
				}
				if got := string(loc.AppendTo([]byte("x|"))); got != "x|"+refLocationString(loc) {
					t.Fatalf("%#v: AppendTo = %q", loc, got)
				}
			}
		}
	}
}

// goldenEvents covers every location kind, severity and sign the
// Writer can be handed.
func goldenEvents() []raslog.Event {
	base := time.Date(2005, 1, 21, 23, 59, 58, 0, time.UTC)
	locs := []raslog.Location{
		{},
		{Kind: raslog.KindRack, Rack: 7},
		{Kind: raslog.KindMidplane, Rack: 63, Midplane: 1},
		{Kind: raslog.KindNodeCard, Rack: 0, Midplane: 0, Card: 4},
		{Kind: raslog.KindComputeChip, Rack: 12, Midplane: 1, Card: 15, Chip: 31},
		{Kind: raslog.KindIONode, Rack: 3, Midplane: 0, Card: 9, Chip: 0},
		{Kind: raslog.KindLinkCard, Rack: 100, Midplane: 1, Card: 3},
		{Kind: raslog.KindServiceCard, Rack: 5, Midplane: 0},
	}
	var out []raslog.Event
	for i, loc := range locs {
		out = append(out, raslog.Event{
			RecID:     int64(i)*1_000_003 - 2,
			Type:      []string{raslog.EventTypeRAS, "KERNEL_T", "x"}[i%3],
			Time:      base.Add(time.Duration(i) * 997 * time.Millisecond).In(time.FixedZone("CET", 3600)),
			JobID:     []int64{raslog.NoJob, 0, 9223372036854775807}[i%3],
			Location:  loc,
			Facility:  []string{"KERNEL", "", "LINKCARD"}[i%3],
			Severity:  raslog.Severity(i % 6),
			EntryData: []string{"uncorrectable torus error", "", "caf\xc3\xa9 \t tabs, commas; and 'quotes'"}[i%3],
		})
	}
	return out
}

// TestWriterGolden pins the Writer's bytes: testdata/writer.golden was
// produced by the fmt.Fprintf-based Writer this one replaced.
func TestWriterGolden(t *testing.T) {
	var buf bytes.Buffer
	w := raslog.NewWriter(&buf)
	events := goldenEvents()
	for i := range events {
		if err := w.Write(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "writer.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Writer output drifted from %s:\n got:\n%s\nwant:\n%s", path, buf.Bytes(), want)
	}
}
