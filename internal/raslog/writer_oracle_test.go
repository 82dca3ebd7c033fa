package raslog_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"bglpred/internal/raslog"
)

// The references: Writer.Write and WireWriter.Write exactly as they
// stood before the writers learned to cache — the text line built in a
// scratch slice with time.AppendFormat, every string scanned for
// reserved characters, every wire string looked up in the frame's map
// twice — kept here so the caching writers have an oracle that shares
// none of their code. Both writers must emit the references' bytes and
// refuse what they refuse with the same error text. Since then the
// writers also refuse a record they would not read back equal: a
// location either encoding drops or misspells, and (text) an ENTRY_DATA
// ending in a carriage return, which the reader takes for half of a
// CRLF, or a line over the reader's cap. The references accept those;
// the checks below hold the writers to refusing exactly them on top.

type refWriter struct {
	bw    *bufio.Writer
	line  []byte // encode scratch, reused across records
	count int64
	err   error
}

func newRefWriter(w io.Writer) *refWriter {
	return &refWriter{bw: bufio.NewWriterSize(w, 1<<16)}
}

func (w *refWriter) Write(e *raslog.Event) error {
	if w.err != nil {
		return w.err
	}
	err := e.Validate()
	switch {
	case err != nil:
	case strings.ContainsAny(e.Type, "\n|"):
		err = fmt.Errorf("raslog: record %d: type contains reserved characters", e.RecID)
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
	b = e.Time.UTC().AppendFormat(append(b, '|'), refTimeLayout)
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

func (w *refWriter) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.bw.Flush()
	return w.err
}

const (
	refWireMaxFrameStrings = 4096
	refWireFlushPayload    = 1 << 20
	refWireMaxString       = 1 << 20
	refWireMaxLocField     = 1 << 31
)

type refWireWriter struct {
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

func newRefWireWriter(w io.Writer) *refWireWriter {
	return &refWireWriter{w: w, strings: make(map[string]uint64)}
}

func (w *refWireWriter) missing(e *raslog.Event) uint64 {
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

func (w *refWireWriter) intern(s string) uint64 {
	if idx, ok := w.strings[s]; ok {
		return idx
	}
	w.payload = append(w.payload, raslog.WireTagString)
	w.payload = binary.AppendUvarint(w.payload, uint64(len(s)))
	w.payload = append(w.payload, s...)
	idx := w.nstr
	w.strings[s] = idx
	w.nstr++
	return idx
}

func (w *refWireWriter) Write(e *raslog.Event) error {
	if w.err != nil {
		return w.err
	}
	if err := e.Validate(); err != nil {
		return err
	}
	if len(e.Facility) > refWireMaxString || len(e.EntryData) > refWireMaxString || len(e.Type) > refWireMaxString {
		return fmt.Errorf("raslog: record %d: wire string over %d bytes", e.RecID, refWireMaxString)
	}
	if !refWireCarries(e.Location) {
		return fmt.Errorf("raslog: record %d: location %+v out of wire range", e.RecID, e.Location)
	}
	if w.n > 0 && (w.nstr+w.missing(e) > refWireMaxFrameStrings || len(w.payload) >= refWireFlushPayload) {
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
	case raslog.KindMidplane, raslog.KindServiceCard:
		b = binary.AppendUvarint(b, uint64(e.Location.Midplane))
	case raslog.KindNodeCard, raslog.KindLinkCard:
		b = binary.AppendUvarint(b, uint64(e.Location.Midplane))
		b = binary.AppendUvarint(b, uint64(e.Location.Card))
	case raslog.KindComputeChip, raslog.KindIONode:
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

	w.payload = append(w.payload, raslog.WireTagEvent)
	w.payload = binary.AppendUvarint(w.payload, uint64(len(b)))
	w.payload = append(w.payload, b...)
	w.n++
	w.count++
	return nil
}

func refWireCarries(l raslog.Location) bool {
	return l.Kind >= raslog.KindUnknown && l.Kind <= raslog.KindServiceCard &&
		uint(l.Rack) <= refWireMaxLocField && uint(l.Midplane) <= refWireMaxLocField &&
		uint(l.Card) <= refWireMaxLocField && uint(l.Chip) <= refWireMaxLocField
}

func (w *refWireWriter) Flush() error {
	if w.err != nil {
		return w.err
	}
	if w.n == 0 {
		return nil
	}
	w.head = raslog.AppendWireFrameHeader(w.head[:0], w.baseSec, w.baseID, len(w.payload))
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

// writeOp is one step of a writer script: a record to write, or a
// Flush.
type writeOp struct {
	ev    raslog.Event
	flush bool
}

// records makes a script of events with no Flush but the last.
func records(events []raslog.Event) []writeOp {
	ops := make([]writeOp, len(events))
	for i := range events {
		ops[i].ev = events[i]
	}
	return ops
}

// locOracle decides, once per location, whether l reads back equal
// from both encodings: its reference spelling under the reference
// parser, and a one-record reference wire frame under the decoder.
type locOracle map[raslog.Location]bool

func (m locOracle) readsBack(l raslog.Location) bool {
	ok, seen := m[l]
	if seen {
		return ok
	}
	back, err := refParseLocation(refLocationString(l))
	ok = err == nil && back == l
	if ok {
		probe := raslog.Event{Type: "x", Time: time.Unix(0, 0).UTC(), Location: l}
		var buf bytes.Buffer
		w := newRefWireWriter(&buf)
		ok = w.Write(&probe) == nil && w.Flush() == nil
		if ok {
			evs, err := raslog.NewWireDecoder(&buf).ReadFrame()
			ok = err == nil && len(evs) == 1 && evs[0].Location == l
		}
	}
	m[l] = ok
	return ok
}

// entryReadsBack reports whether ENTRY_DATA s, the last field of a
// line, comes back whole from the line splitting the reference reader
// does.
func entryReadsBack(s string) bool {
	_, tok, _ := bufio.ScanLines([]byte(s+"\n"), true)
	return string(tok) == s
}

// readerLineCap is the longest line a Reader takes, its newline
// included.
const readerLineCap = 1 << 20

// inSeconds is e as a decoder returns it: whole seconds, in UTC.
func inSeconds(e raslog.Event) raslog.Event {
	e.Time = time.Unix(e.Time.Unix(), 0).UTC()
	return e
}

// checkWriters runs a script through both writers and their references.
func checkWriters(t testing.TB, ops []writeOp) {
	t.Helper()
	locs := locOracle{}
	checkTextWriter(t, ops, locs)
	checkWireWriter(t, ops, locs)
}

// checkTextWriter writes the script through one Writer and each record
// through the reference, and requires the reference's bytes and
// refusals — and on top, a refusal of each record the reference writes
// but the dialect would not read back equal. A refusal leaves the
// Writer as it was, so one stream runs to the end: each Flush must
// leave every record accepted so far in the output, and the output
// must read back as those records.
func checkTextWriter(t testing.TB, ops []writeOp, locs locOracle) {
	t.Helper()
	var lineBuf bytes.Buffer
	ref := newRefWriter(&lineBuf)
	var got, want bytes.Buffer
	w := raslog.NewWriter(&got)
	var accepted []raslog.Event
	flush := func() {
		t.Helper()
		if err := w.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("after Flush the Writer has written %d bytes, the reference's lines for what it accepted %d; first difference at %d",
				got.Len(), want.Len(), firstDiff(got.Bytes(), want.Bytes()))
		}
	}
	for i := range ops {
		if ops[i].flush {
			flush()
			continue
		}
		e := &ops[i].ev
		refErr := ref.Write(e)
		if refErr == nil {
			refErr = ref.Flush()
		}
		line := lineBuf.Bytes()
		lineBuf.Reset()
		if refErr != nil {
			ref = newRefWriter(&lineBuf)
		}
		err := w.Write(e)
		switch {
		case refErr != nil:
			if err == nil || err.Error() != refErr.Error() {
				t.Fatalf("op %d %+v: Writer said %v, the reference %v", i, *e, err, refErr)
			}
		case !locs.readsBack(e.Location):
			if err == nil || !strings.Contains(err.Error(), "does not read back") {
				t.Fatalf("op %d %+v: location does not read back, Writer said %v", i, *e, err)
			}
		case !entryReadsBack(e.EntryData):
			if err == nil || !strings.Contains(err.Error(), "carriage return") {
				t.Fatalf("op %d %+v: entry does not read back, Writer said %v", i, *e, err)
			}
		case len(line) > readerLineCap:
			if err == nil || !strings.Contains(err.Error(), "line over") {
				t.Fatalf("op %d: a %d-byte line, over the Reader's cap; Writer said %v", i, len(line), err)
			}
		default:
			if err != nil {
				t.Fatalf("op %d %+v: Writer refused what the reference writes and reads back: %v", i, *e, err)
			}
			want.Write(line)
			accepted = append(accepted, inSeconds(*e))
		}
	}
	flush()
	back, err := raslog.NewReader(&got).ReadAll()
	if err != nil || len(back) != len(accepted) {
		t.Fatalf("read back %d records, %v; want %d", len(back), err, len(accepted))
	}
	for i := range accepted {
		if back[i] != accepted[i] {
			t.Fatalf("record %d read back %+v, want %+v", i, back[i], accepted[i])
		}
	}
}

// checkWireWriter writes the script through one WireWriter and one
// reference, and requires the reference's bytes and refusals — and on
// top, a refusal of each record the reference writes but with a
// location that would not read back equal. A refusal leaves both
// writers as they were, so one stream runs to the end, Flushes
// included, and must decode to the records accepted.
func checkWireWriter(t testing.TB, ops []writeOp, locs locOracle) {
	t.Helper()
	var got, want bytes.Buffer
	w, ref := raslog.NewWireWriter(&got), newRefWireWriter(&want)
	verdict := newRefWireWriter(io.Discard)
	var accepted []raslog.Event
	for i := range ops {
		if ops[i].flush {
			if err, refErr := w.Flush(), ref.Flush(); err != nil || refErr != nil {
				t.Fatalf("op %d: Flush: %v, reference %v", i, err, refErr)
			}
			continue
		}
		e := &ops[i].ev
		refErr := verdict.Write(e) // a refusal reads no state
		if refErr == nil {
			_ = verdict.Flush()
		}
		err := w.Write(e)
		switch {
		case refErr != nil:
			if err == nil || err.Error() != refErr.Error() &&
				!(strings.Contains(refErr.Error(), "out of wire range") && strings.Contains(err.Error(), "does not read back")) {
				t.Fatalf("op %d %+v: WireWriter said %v, the reference %v", i, *e, err, refErr)
			}
		case !locs.readsBack(e.Location):
			if err == nil || !strings.Contains(err.Error(), "does not read back") {
				t.Fatalf("op %d %+v: location does not read back, WireWriter said %v", i, *e, err)
			}
		default:
			if err != nil {
				t.Fatalf("op %d %+v: WireWriter refused what the reference writes and reads back: %v", i, *e, err)
			}
			if err := ref.Write(e); err != nil {
				t.Fatal(err)
			}
			accepted = append(accepted, inSeconds(*e))
		}
	}
	if err, refErr := w.Flush(), ref.Flush(); err != nil || refErr != nil {
		t.Fatalf("Flush: %v, reference %v", err, refErr)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WireWriter wrote %d bytes, the reference %d; first difference at %d",
			got.Len(), want.Len(), firstDiff(got.Bytes(), want.Bytes()))
	}
	var back []raslog.Event
	d := raslog.NewWireDecoder(&got)
	evs, err := d.ReadFrame()
	for ; err == nil; evs, err = d.ReadFrame() {
		back = append(back, evs...)
	}
	if err != io.EOF || len(back) != len(accepted) {
		t.Fatalf("decoded %d records, %v; want %d", len(back), err, len(accepted))
	}
	for i := range accepted {
		if back[i] != accepted[i] {
			t.Fatalf("record %d decoded %+v, want %+v", i, back[i], accepted[i])
		}
	}
}

func firstDiff(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// The pools a script draws fields from: values that repeat, reserved
// characters, carriage returns, and locations on both sides of what
// the writers carry.
var (
	scriptTypes      = []string{raslog.EventTypeRAS, "KERNEL_T", "x", "R|S", "a\nb", "CR\r", ""}
	scriptFacilities = []string{"KERNEL", "", "LINKCARD", "a|b", "MMCS\r", "MONITOR"}
	scriptEntries    = []string{
		"uncorrectable torus error", "", "kernel panic\r", "has|pipe", "a\nb",
		"caf\xc3\xa9 \t tabs", "\r", "mid\rline", "ddr error correction info",
	}
	scriptLocations = []raslog.Location{
		{},
		{Kind: raslog.KindRack, Rack: 7},
		{Kind: raslog.KindMidplane, Rack: 63, Midplane: 1},
		{Kind: raslog.KindNodeCard, Rack: 0, Midplane: 0, Card: 4},
		{Kind: raslog.KindComputeChip, Rack: 12, Midplane: 1, Card: 15, Chip: 31},
		{Kind: raslog.KindIONode, Rack: 3, Midplane: 0, Card: 9, Chip: 0},
		{Kind: raslog.KindLinkCard, Rack: 100, Midplane: 1, Card: 3},
		{Kind: raslog.KindServiceCard, Rack: 5, Midplane: 0},
		{Kind: raslog.KindRack, Rack: 1 << 31},
		{Kind: raslog.KindRack, Rack: -1},
		{Kind: raslog.KindMidplane, Rack: 1, Midplane: 7},
		{Kind: raslog.KindRack, Rack: 1, Midplane: 1},
		{Kind: raslog.KindServiceCard, Rack: 2, Card: 2},
		{Kind: raslog.KindRack, Rack: 1<<31 + 1},
		{Kind: raslog.KindServiceCard + 1},
		{Kind: raslog.KindUnknown, Rack: 5},
	}
)

// The first and last instants a record may carry.
var (
	firstInstant = time.Unix(0, 0).UTC()
	lastInstant  = time.Unix(0, math.MaxInt64).UTC()
)

// scriptOps turns bytes into a writer script. Each op byte picks a
// step: a record whose time moves (same second, next second, next day,
// the day's last second, a sub-second instant, either end of the range
// or just past it, a jump, a return) and whose fields change as the
// next byte says; a Flush; a burst of distinct entries past the
// 4096-string frame cut; a run of 192 KiB entries past the 1 MiB one,
// sometimes with one at or over the wire's string cap; a field set from
// the script's own bytes; or a location of arbitrary numbers.
func scriptOps(script []byte) []writeOp {
	pos := 0
	next := func() byte {
		if pos == len(script) {
			return 0
		}
		pos++
		return script[pos-1]
	}
	start := time.Date(2005, 6, 1, 0, 0, 0, 0, time.UTC)
	ev := raslog.Event{
		Type: raslog.EventTypeRAS, Time: start, JobID: raslog.NoJob,
		Location: scriptLocations[2], Facility: "KERNEL", EntryData: "ddr error correction info",
	}
	var ops []writeOp
	emit := func() {
		ev.RecID++
		ops = append(ops, writeOp{ev: ev})
	}
	for pos < len(script) && len(ops) < 20000 {
		switch op := next(); op % 16 {
		case 0, 1, 2, 3, 4, 5, 6, 7:
			arg := next()
			switch op % 8 {
			case 0: // the same second
			case 1:
				ev.Time = ev.Time.Add(time.Second)
			case 2:
				ev.Time = ev.Time.Add(24 * time.Hour)
			case 3:
				y, m, d := ev.Time.UTC().Date()
				ev.Time = time.Date(y, m, d, 23, 59, 59, 0, time.UTC)
			case 4:
				ev.Time = time.Unix(ev.Time.Unix(), int64(arg)*3_921_568).In(time.FixedZone("CET", 3600))
			case 5:
				ev.Time = [...]time.Time{firstInstant, lastInstant, firstInstant.Add(-1), lastInstant.Add(1)}[arg%4]
			case 6:
				ev.Time = ev.Time.Add(time.Duration(arg)*time.Duration(arg)*time.Hour + time.Duration(arg)*time.Second)
			case 7:
				ev.Time = start.Add(-time.Duration(arg) * time.Hour)
			}
			ch := next()
			if ch&1 != 0 {
				ev.Type = scriptTypes[int(next())%len(scriptTypes)]
			}
			if ch&2 != 0 {
				ev.Facility = scriptFacilities[int(next())%len(scriptFacilities)]
			}
			if ch&4 != 0 {
				ev.EntryData = scriptEntries[int(next())%len(scriptEntries)]
			}
			if ch&8 != 0 {
				ev.Location = scriptLocations[int(next())%len(scriptLocations)]
			}
			ev.Severity = raslog.Severity(ch >> 4 & 7) // 6 and 7 are invalid
			if ch&0x80 != 0 {
				ev.RecID = int64(int8(next())) << 56
				ev.JobID = int64(int8(next())) * 1_000_003
			}
			emit()
		case opFlush:
			ops = append(ops, writeOp{flush: true})
		case opBurst:
			for i, n := 0, 4000+4*int(next()); i < n; i++ {
				ev.EntryData = "burst " + strconv.FormatInt(ev.RecID, 10)
				emit()
			}
		case opBig:
			size := 192 << 10
			switch next() % 8 {
			case 0:
				size = 1 << 20
			case 1:
				size = 1<<20 + 1
			}
			for i, n := 0, 4+int(next()%6); i < n; i++ {
				ev.EntryData = strconv.FormatInt(ev.RecID, 10) + strings.Repeat("y", size)
				emit()
			}
		case opField:
			field := next() % 3
			end := min(pos+int(next()%24), len(script))
			s := string(script[pos:end])
			pos = end
			switch field {
			case 0:
				ev.Type = s
			case 1:
				ev.Facility = s
			case 2:
				ev.EntryData = s
			}
		default:
			ev.Location = raslog.Location{
				Kind: raslog.LocationKind(int8(next()) % 10), Rack: int(int8(next())),
				Midplane: int(int8(next()) % 4), Card: int(int8(next()) % 20), Chip: int(int8(next()) % 40),
			}
		}
	}
	return ops
}

// Script op bytes past the eight record steps (0-7). Every byte from
// opLocation up sets a location.
const (
	opFlush byte = 8 + iota
	opBurst
	opBig
	opField
	opLocation
)

// writerScripts seed the fuzz target and the edge-case test: every time
// step with and without field changes, every pooled value, refusals
// and Flushes between repeats, and both frame cuts.
func writerScripts() [][]byte {
	var steps []byte
	for step := byte(0); step < 8; step++ {
		for arg := byte(0); arg < 4; arg++ {
			steps = append(steps, step, arg*85, 0)                           // the time moves, fields stay
			steps = append(steps, step, arg, 0x0f, arg, arg+1, arg+2, arg+3) // and every field changes
		}
	}
	var pool []byte
	for i := byte(0); i < 16; i++ {
		pool = append(pool, 0, 0, 0x0f|i<<4&0x70, i, i, i, i, opFlush, 1, 0, 0)
	}
	return [][]byte{
		steps,
		pool,
		{0, 0, 0, opFlush, 0, 0, 0, opFlush, opFlush, 0, 0, 0},
		{0, 0, 0, 0, 0, 8, 9, 0, 0, 8, 2, 0, 0, 0},
		{opBurst, 0, 0, 0, 0, opFlush, opBurst, 255, 0, 0, 0},
		{opBig, 2, 5, opBig, 0, 1, opBig, 1, 0, 0, 0, 0},
		{opField, 2, 5, 'a', '\r', 'b', 'c', '\r', 0, 0, 0, opField, 0, 3, 'R', '|', 'S', 0, 0, 0},
		{0, 0, 1, 5, opField, 2, 3, 'C', 'R', '\r', 0, 0, 0}, // an entry equal to the last type
		{opLocation, 1, 1, 0, 0, 0, 0, 0, 0, opLocation, 4, 2, 1, 3, 5, 0, 0, 0, opLocation, 0xff, 0, 0, 0, 0, 0, 0, 0},
	}
}

// TestWritersMatchReferenceOnEdgeCases runs the seed scripts.
func TestWritersMatchReferenceOnEdgeCases(t *testing.T) {
	for i, script := range writerScripts() {
		t.Run(strconv.Itoa(i), func(t *testing.T) { checkWriters(t, scriptOps(script)) })
	}
}

// FuzzWritersMatchReference explores scripts beyond the seeds.
func FuzzWritersMatchReference(f *testing.F) {
	for _, script := range writerScripts() {
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		checkWriters(t, scriptOps(script))
	})
}

// TestWritersMatchReferenceOnGeneratedLog holds both writers to the
// references over every record of a bglsim log.
func TestWritersMatchReferenceOnGeneratedLog(t *testing.T) {
	events, _ := simLog(t, 0.01)
	checkWriters(t, records(events))
}

// TestWritersMatchReferenceOnBenchTail holds both writers to the
// references' bytes over go run ./bench's tail at two seeds, each
// writer warm across the 4096-record batches, with a Flush after each.
func TestWritersMatchReferenceOnBenchTail(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the bench's million-record log twice")
	}
	for _, seed := range []uint64{1, 7} {
		batches := benchTail(t, seed)
		var got, want [2]bytes.Buffer
		writers := [2]interface {
			Write(*raslog.Event) error
			Flush() error
		}{raslog.NewWriter(&got[0]), raslog.NewWireWriter(&got[1])}
		refs := [2]interface {
			Write(*raslog.Event) error
			Flush() error
		}{newRefWriter(&want[0]), newRefWireWriter(&want[1])}
		for _, batch := range batches {
			for i := range batch {
				for k := range writers {
					if err, refErr := writers[k].Write(&batch[i]), refs[k].Write(&batch[i]); err != nil || refErr != nil {
						t.Fatalf("seed %d, %T: %v; reference %v", seed, writers[k], err, refErr)
					}
				}
			}
			for k := range writers {
				if err, refErr := writers[k].Flush(), refs[k].Flush(); err != nil || refErr != nil {
					t.Fatalf("seed %d, %T: Flush: %v; reference %v", seed, writers[k], err, refErr)
				}
				if !bytes.Equal(got[k].Bytes(), want[k].Bytes()) {
					t.Fatalf("seed %d, %T, record %d on: %d bytes, the reference %d; first difference at %d",
						seed, writers[k], batch[0].RecID, got[k].Len(), want[k].Len(), firstDiff(got[k].Bytes(), want[k].Bytes()))
				}
				got[k].Reset()
				want[k].Reset()
			}
		}
	}
}

// readBackBoth writes e through each writer and reads it back through
// the matching strict decoder: per writer, the record read back, or
// the writer's refusal. A record that does not decode reads back as
// the zero Event.
func readBackBoth(t *testing.T, e raslog.Event) (text, wire raslog.Event, textErr, wireErr error) {
	t.Helper()
	var tb, wb bytes.Buffer
	tw, ww := raslog.NewWriter(&tb), raslog.NewWireWriter(&wb)
	if textErr = tw.Write(&e); textErr == nil {
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		line := tb.String()
		var err error
		if text, err = raslog.NewReader(&tb).Read(); err != nil {
			t.Logf("%+v: the Writer wrote %q, which does not read back: %v", e.Location, line, err)
		}
	}
	if wireErr = ww.Write(&e); wireErr == nil {
		if err := ww.Flush(); err != nil {
			t.Fatal(err)
		}
		if evs, err := raslog.NewWireDecoder(&wb).ReadFrame(); err != nil || len(evs) != 1 {
			t.Logf("%+v: the wire frame does not decode: %d events, %v", e.Location, len(evs), err)
		} else {
			wire = evs[0]
		}
	}
	return text, wire, textErr, wireErr
}

// TestWritersReadBackOrRefuseLocations: each location is refused by
// both writers or reads back equal from both.
func TestWritersReadBackOrRefuseLocations(t *testing.T) {
	cases := []struct {
		loc  raslog.Location
		kept bool
	}{
		{raslog.Location{}, true},
		{raslog.Location{Kind: raslog.KindRack, Rack: 1}, true},
		{raslog.Location{Kind: raslog.KindMidplane, Rack: 1, Midplane: 1}, true},
		{raslog.Location{Kind: raslog.KindComputeChip, Rack: 12, Midplane: 1, Card: 15, Chip: 31}, true},
		{raslog.Location{Kind: raslog.KindIONode, Rack: 3, Card: 9}, true},
		{raslog.Location{Kind: raslog.KindLinkCard, Rack: 100, Midplane: 1, Card: 12}, true},
		{raslog.Location{Kind: raslog.KindServiceCard, Rack: 5, Midplane: 1}, true},
		{raslog.Location{Kind: raslog.KindNodeCard, Rack: 1 << 31, Midplane: 1, Card: 1 << 31}, true},
		{raslog.Location{Kind: raslog.KindRack, Rack: -1}, false},                      // spelled R-1
		{raslog.Location{Kind: raslog.KindMidplane, Rack: 1, Midplane: 7}, false},      // spelled R01-M7
		{raslog.Location{Kind: raslog.KindMidplane, Rack: 1, Midplane: -1}, false},     // spelled R01-M-1
		{raslog.Location{Kind: raslog.KindLinkCard, Rack: 1, Card: -2}, false},         // spelled R01-M0-L-2
		{raslog.Location{Kind: raslog.KindRack, Rack: 1, Midplane: 1}, false},          // midplane below the kind
		{raslog.Location{Kind: raslog.KindServiceCard, Rack: 1, Card: 2}, false},       // card below the kind
		{raslog.Location{Kind: raslog.KindNodeCard, Rack: 1, Card: 2, Chip: 3}, false}, // chip below the kind
		{raslog.Location{Kind: raslog.KindUnknown, Rack: 5}, false},                    // spelled ?
		{raslog.Location{Kind: raslog.KindServiceCard + 1}, false},                     // spelled ?
		{raslog.Location{Kind: -1}, false},                                             // spelled ?
		{raslog.Location{Kind: raslog.KindRack, Rack: 1<<31 + 1}, false},               // past the wire's field cap
		{raslog.Location{Kind: raslog.KindIONode, Rack: 1, Chip: 1<<31 + 1}, false},
	}
	for _, c := range cases {
		e := raslog.Event{RecID: 1, Type: raslog.EventTypeRAS, Time: time.Date(2005, 6, 1, 0, 0, 0, 0, time.UTC), Location: c.loc}
		text, wire, textErr, wireErr := readBackBoth(t, e)
		switch {
		case (textErr == nil) != c.kept || (wireErr == nil) != c.kept:
			t.Errorf("%+v: Writer said %v, WireWriter %v; want kept=%v", c.loc, textErr, wireErr, c.kept)
		case c.kept && (text != e || wire != e):
			t.Errorf("%+v: read back %+v from text, %+v from the wire", c.loc, text.Location, wire.Location)
		}
	}
}

// TestWriterRefusesTrailingCR: the Reader takes a carriage return
// before the newline for half of a CRLF, so the Writer refuses an
// ENTRY_DATA ending in one. The wire carries it, and a carriage return
// anywhere else reads back from both.
func TestWriterRefusesTrailingCR(t *testing.T) {
	for _, c := range []struct {
		entry string
		text  bool // the Writer keeps it
	}{
		{"kernel panic\r", false},
		{"\r", false},
		{"two\r\r", false},
		{"mid\rline", true},
		{"\rlead", true},
	} {
		e := raslog.Event{RecID: 1, Type: raslog.EventTypeRAS, Time: time.Date(2005, 6, 1, 0, 0, 0, 0, time.UTC), EntryData: c.entry}
		text, wire, textErr, wireErr := readBackBoth(t, e)
		if (textErr == nil) != c.text || c.text && text != e {
			t.Errorf("%q: Writer said %v and read back %q; want kept=%v", c.entry, textErr, text.EntryData, c.text)
		}
		if wireErr != nil || wire != e {
			t.Errorf("%q: WireWriter said %v and read back %q", c.entry, wireErr, wire.EntryData)
		}
	}
}

// TestWritersZeroAllocs pins both writers' steady state at no
// allocation: a warm writer re-writing every 8th record of a bglsim log
// (five days, hundreds of entries), then 4200 distinct entries, which
// cut a wire frame at its string cap, into a buffer that has grown to
// hold them.
func TestWritersZeroAllocs(t *testing.T) {
	log, _ := simLog(t, 0.01)
	var events []raslog.Event
	for i := 0; i < len(log); i += 8 {
		events = append(events, log[i])
	}
	for i := 0; i < 4200; i++ {
		e := events[len(events)-1]
		e.RecID++
		e.EntryData = "entry " + strconv.Itoa(i)
		events = append(events, e)
	}
	var buf bytes.Buffer
	for _, w := range []interface {
		Write(*raslog.Event) error
		Flush() error
	}{raslog.NewWriter(&buf), raslog.NewWireWriter(&buf)} {
		run := func() {
			buf.Reset()
			for i := range events {
				if err := w.Write(&events[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if avg := testing.AllocsPerRun(20, run); avg != 0 {
			t.Errorf("%T: %.1f allocs per run, want 0", w, avg)
		}
	}
}

// TestWriterLineCap: the Writer writes a line the Reader's cap holds,
// newline included, and refuses one a byte longer.
func TestWriterLineCap(t *testing.T) {
	e := raslog.Event{RecID: 1, Type: raslog.EventTypeRAS, Time: time.Date(2005, 6, 1, 0, 0, 0, 0, time.UTC)}
	head := len("1|RAS|2005-06-01 00:00:00|0|?||INFO|")
	for _, n := range []int{readerLineCap, readerLineCap + 1} {
		e.EntryData = strings.Repeat("y", n-head-1)
		text, _, err, _ := readBackBoth(t, e)
		if kept := n <= readerLineCap; (err == nil) != kept || kept && text != e {
			t.Errorf("a %d-byte line: Writer said %v; want kept=%v and read back", n, err, kept)
		}
	}
}
