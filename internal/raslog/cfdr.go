package raslog

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"
)

// Reader for the publicly released Blue Gene/L RAS log format (the
// LLNL BG/L log distributed through the USENIX Computer Failure Data
// Repository and mirrored widely as "bgl2"). Lines look like:
//
//	- 1117838570 2005.06.03 R02-M1-N0-C:J12-U11 2005-06-03-15.42.50.363779 R02-M1-N0-C:J12-U11 RAS KERNEL INFO instruction cache parity error corrected
//
// Fields (space-separated):
//
//	0  alert category tag ("-" = non-alert)
//	1  unix timestamp (seconds)
//	2  date (yyyy.mm.dd)
//	3  source location
//	4  full-precision timestamp
//	5  location (again)
//	6  message type (RAS, ...)
//	7  facility (KERNEL, APP, DISCOVERY, MMCS, LINKCARD, MONITOR, HARDWARE, ...)
//	8  severity (INFO, WARNING, SEVERE, ERROR, FATAL, FAILURE)
//	9+ message text
//
// This reader lets the predictor run against the real public trace:
// the severity ladder and facilities match the paper's Table 2
// attributes directly; LOCATION uses LLNL's node-card grammar, which
// parseCFDRLocation maps onto our Location model; the public log
// carries no JOB ID column, so records get NoJob (the paper's ANL and
// SDSC dumps did include it).

// CFDRReader streams Events from the public BG/L log format.
type CFDRReader struct {
	sc   *bufio.Scanner
	line int64
	recs int64
	// Strict rejects malformed lines instead of skipping them.
	Strict bool
	// Skipped counts malformed lines dropped in non-strict mode.
	Skipped int64
}

// NewCFDRReader wraps r.
func NewCFDRReader(r io.Reader) *CFDRReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	return &CFDRReader{sc: sc}
}

// Read returns the next event, or io.EOF.
func (r *CFDRReader) Read() (Event, error) {
	for r.sc.Scan() {
		r.line++
		line := strings.TrimRight(r.sc.Text(), "\r")
		if line == "" {
			continue
		}
		ev, err := parseCFDRLine(line)
		if err != nil {
			if r.Strict {
				return Event{}, fmt.Errorf("line %d: %w", r.line, err)
			}
			r.Skipped++
			continue
		}
		r.recs++
		ev.RecID = r.recs
		return ev, nil
	}
	if err := r.sc.Err(); err != nil {
		return Event{}, err
	}
	return Event{}, io.EOF
}

// ReadAll drains the reader.
func (r *CFDRReader) ReadAll() ([]Event, error) {
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

func parseCFDRLine(line string) (Event, error) {
	fields := strings.SplitN(line, " ", 10)
	if len(fields) < 9 {
		return Event{}, fmt.Errorf("raslog: cfdr line has %d fields, want >= 9", len(fields))
	}
	sec, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Event{}, fmt.Errorf("raslog: cfdr timestamp %q", fields[1])
	}
	sev, err := ParseSeverity(fields[8])
	if err != nil {
		return Event{}, err
	}
	loc, err := ParseCFDRLocation(fields[3])
	if err != nil || !encodable(loc) {
		// Some records locate at named services ("UNKNOWN_LOCATION",
		// "NULL"); keep them, and any location the writers cannot carry,
		// with an unknown location.
		loc = Location{}
	}
	msg := ""
	if len(fields) >= 10 {
		msg = fields[9]
	}
	// The log dialect reserves '|'; the public trace never uses it in
	// practice, but sanitize defensively.
	clean := func(s string) string { return strings.ReplaceAll(s, "|", "/") }
	ev := Event{
		Type:      clean(fields[6]),
		Time:      time.Unix(sec, 0).UTC(),
		JobID:     NoJob, // the public trace has no JOB ID column
		Location:  loc,
		Facility:  clean(fields[7]),
		Severity:  sev,
		EntryData: clean(msg),
	}
	// A record Validate refuses, a time outside TimeInRange among them,
	// is one neither writer would take.
	if err := ev.Validate(); err != nil {
		return Event{}, err
	}
	return ev, nil
}

// ParseCFDRLocation parses LLNL's location grammar:
//
//	R02            rack
//	R02-M1         midplane
//	R02-M1-N0      node card (single hex-ish digit 0-F)
//	R02-M1-N0-C:J12-U11   compute card J slot / U chip position
//	R02-M1-N0-I:J18-U01   I/O card
//	R02-M1-L2      link card  (also seen as R02-M1-L2-U01)
//	R02-M1-S       service card
//
// J/U positions are folded into our card-relative chip index.
func ParseCFDRLocation(text string) (Location, error) {
	if text == "" || text == "-" {
		return Location{}, nil
	}
	parts := strings.Split(text, "-")
	bad := func() (Location, error) {
		return Location{}, fmt.Errorf("raslog: malformed cfdr location %q", text)
	}
	if len(parts[0]) < 2 || parts[0][0] != 'R' {
		return bad()
	}
	rack, err := strconv.Atoi(parts[0][1:])
	if err != nil || rack < 0 {
		return bad()
	}
	loc := Location{Kind: KindRack, Rack: rack}
	if len(parts) == 1 {
		return loc, nil
	}
	if len(parts[1]) != 2 || parts[1][0] != 'M' || (parts[1][1] != '0' && parts[1][1] != '1') {
		return bad()
	}
	loc.Kind = KindMidplane
	loc.Midplane = int(parts[1][1] - '0')
	if len(parts) == 2 {
		return loc, nil
	}
	seg := parts[2]
	if seg == "" {
		return bad()
	}
	switch seg[0] {
	case 'S':
		loc.Kind = KindServiceCard
		return loc, nil
	case 'L':
		n, err := strconv.Atoi(seg[1:])
		if err != nil || n < 0 {
			return bad()
		}
		loc.Kind = KindLinkCard
		loc.Card = n
		return loc, nil // trailing -U01 ignored: link card granularity
	case 'N':
		// Node card index is hexadecimal (N0..NF).
		n, err := strconv.ParseInt(seg[1:], 16, 32)
		if err != nil || n < 0 {
			return bad()
		}
		loc.Kind = KindNodeCard
		loc.Card = int(n)
	default:
		return bad()
	}
	if len(parts) == 3 {
		return loc, nil
	}
	// Compute or I/O card: "C:J12" / "I:J18" then "U11".
	cardSeg := parts[3]
	var kind LocationKind
	switch {
	case strings.HasPrefix(cardSeg, "C:J"):
		kind = KindComputeChip
	case strings.HasPrefix(cardSeg, "I:J"):
		kind = KindIONode
	default:
		return bad()
	}
	jpos, err := strconv.Atoi(cardSeg[3:])
	if err != nil || jpos < 0 {
		return bad()
	}
	upos := 0
	if len(parts) >= 5 {
		useg := parts[4]
		if len(useg) < 2 || useg[0] != 'U' {
			return bad()
		}
		if upos, err = strconv.Atoi(useg[1:]); err != nil || upos < 0 {
			return bad()
		}
	}
	loc.Kind = kind
	// Fold the (J, U) position into a stable per-card chip index. Each
	// J slot carries two chips, U01 and U11. The exact physical
	// mapping is irrelevant to the predictor — the index only needs to
	// be stable and injective, so: slot*2 + (0 for U01, 1 for U11).
	loc.Chip = jpos*2 + upos/10
	return loc, nil
}

// FormatCFDRLocation renders a Location in LLNL's grammar — the
// inverse of ParseCFDRLocation (J/U positions reconstruct from the
// folded chip index).
func FormatCFDRLocation(loc Location) string {
	switch loc.Kind {
	case KindRack:
		return fmt.Sprintf("R%02d", loc.Rack)
	case KindMidplane:
		return fmt.Sprintf("R%02d-M%d", loc.Rack, loc.Midplane)
	case KindNodeCard:
		return fmt.Sprintf("R%02d-M%d-N%X", loc.Rack, loc.Midplane, loc.Card)
	case KindLinkCard:
		return fmt.Sprintf("R%02d-M%d-L%d", loc.Rack, loc.Midplane, loc.Card)
	case KindServiceCard:
		return fmt.Sprintf("R%02d-M%d-S", loc.Rack, loc.Midplane)
	case KindComputeChip:
		return fmt.Sprintf("R%02d-M%d-N%X-C:J%02d-U%d1",
			loc.Rack, loc.Midplane, loc.Card, loc.Chip/2, loc.Chip%2)
	case KindIONode:
		return fmt.Sprintf("R%02d-M%d-N%X-I:J%02d-U%d1",
			loc.Rack, loc.Midplane, loc.Card, loc.Chip/2, loc.Chip%2)
	default:
		return "UNKNOWN_LOCATION"
	}
}

// WriteCFDR serializes events in the public trace format, enabling
// round trips with tools built against the CFDR release. Records with
// job attribution lose it (the public format has no JOB ID column).
func WriteCFDR(w io.Writer, events []Event) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	for i := range events {
		e := &events[i]
		loc := FormatCFDRLocation(e.Location)
		msg := strings.ReplaceAll(e.EntryData, "\n", " ")
		_, err := fmt.Fprintf(bw, "- %d %s %s %s %s %s %s %s %s\n",
			e.Time.Unix(),
			e.Time.UTC().Format("2006.01.02"),
			loc,
			e.Time.UTC().Format("2006-01-02-15.04.05.000000"),
			loc,
			e.Type, e.Facility, e.Severity, msg)
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteCFDRFile writes events to path in the public trace format.
func WriteCFDRFile(path string, events []Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteCFDR(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadCFDRFile loads a public-format BG/L log. Malformed lines are
// skipped (the published trace contains a handful); the skipped count
// is returned alongside the events.
func ReadCFDRFile(path string) ([]Event, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	r := NewCFDRReader(f)
	events, err := r.ReadAll()
	return events, r.Skipped, err
}
