package cluster

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"

	"bglpred/internal/bglsim"
	"bglpred/internal/raslog"
)

// referenceIngestWire is the wire routing scan as it stood before
// routeFrame built sub-frames in place in a pooled scratch: fresh
// buffers per request, each sub-frame's payload collected, then copied
// behind a rebuilt header. It is kept verbatim (receiver made a
// parameter) as the oracle for the scan that replaced it — per owner,
// the frames, their record counts and newest event times, the HTTP
// status and the error text must all match.
func referenceIngestWire(g *Gate, body io.Reader, resp *IngestResponse, batches [][]replayEntry) int {
	code := http.StatusOK
	unknownOwner := g.ring.OwnerIndex("?")
	sc := raslog.NewWireScanner(body)
	type subFrame struct {
		payload []byte
		n       int
		last    time.Time
		strings int // source string records copied so far
	}
	subs := make([]subFrame, len(g.backends))
	var strRecs [][]byte
	for {
		f, err := sc.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				g.parseErrs.Add(1)
				resp.Error = err.Error()
				code = http.StatusBadRequest
			}
			break
		}
		strRecs = strRecs[:0]
		for i := range subs {
			subs[i].payload = subs[i].payload[:0]
			subs[i].n = 0
			subs[i].last = time.Time{}
			subs[i].strings = 0
		}
		werr := f.Records(func(tag byte, raw, content []byte) error {
			if tag == raslog.WireTagString {
				strRecs = append(strRecs, raw)
				return nil
			}
			owner := unknownOwner
			var at time.Time
			if loc, t, perr := raslog.PeekWireEvent(content, f.BaseSec); perr == nil {
				owner = g.ring.OwnerIndexLocation(loc)
				at = t
			}
			sub := &subs[owner]
			// Catch up string records this sub-frame hasn't copied yet:
			// adds precede the events that reference them, so copying the
			// source-order prefix keeps every index in raw valid.
			for ; sub.strings < len(strRecs); sub.strings++ {
				sub.payload = append(sub.payload, strRecs[sub.strings]...)
			}
			sub.payload = append(sub.payload, raw...)
			sub.n++
			if at.After(sub.last) {
				sub.last = at
			}
			return nil
		})
		if werr != nil {
			// Frame-level corruption: the record stream is unwalkable.
			g.parseErrs.Add(1)
			resp.Error = werr.Error()
			code = http.StatusBadRequest
			break
		}
		for i := range subs {
			sub := &subs[i]
			if sub.n == 0 {
				continue
			}
			frame := raslog.AppendWireFrameHeader(nil, f.BaseSec, f.BaseRecID, len(sub.payload))
			frame = append(frame, sub.payload...)
			batches[i] = append(batches[i], replayEntry{line: frame, at: sub.last, n: sub.n})
		}
	}
	return code
}

// scanGate is a two-backend gate nothing is ever forwarded through:
// the scan tests drive ingestWire directly.
func scanGate(t testing.TB) *Gate {
	t.Helper()
	g, err := New(Config{Backends: []string{"http://b0.cluster.test", "http://b1.cluster.test"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

// checkScanMatchesReference routes body through ingestWire — twice
// over one scratch, so state a request leaves behind would show — and
// through the reference, and requires identical results.
func checkScanMatchesReference(t testing.TB, g *Gate, body []byte) {
	t.Helper()
	var wantResp IngestResponse
	want := make([][]replayEntry, len(g.backends))
	wantCode := referenceIngestWire(g, bytes.NewReader(body), &wantResp, want)

	s := g.scratch.New().(*routeScratch)
	for round := 0; round < 2; round++ {
		var resp IngestResponse
		code := g.ingestWire(bytes.NewReader(body), &resp, s)
		if code != wantCode || resp.Error != wantResp.Error {
			t.Fatalf("round %d: status %d error %q, reference %d %q", round, code, resp.Error, wantCode, wantResp.Error)
		}
		for i := range s.owners {
			ob := &s.owners[i]
			got := ob.entries()
			if len(got) != len(want[i]) {
				t.Fatalf("round %d owner %d: %d sub-frames, reference %d", round, i, len(got), len(want[i]))
			}
			var all []byte
			for j := range got {
				if !bytes.Equal(got[j].line, want[i][j].line) {
					t.Fatalf("round %d owner %d sub-frame %d:\n got %x\nwant %x", round, i, j, got[j].line, want[i][j].line)
				}
				if !got[j].at.Equal(want[i][j].at) || got[j].n != want[i][j].n {
					t.Fatalf("round %d owner %d sub-frame %d: at %v n %d, reference at %v n %d", round, i, j,
						got[j].at, got[j].n, want[i][j].at, want[i][j].n)
				}
				all = append(all, got[j].line...)
			}
			// What a forward would send is the frames back to back, gap-free.
			if !bytes.Equal(ob.buf, all) {
				t.Fatalf("round %d owner %d: batch body is not its sub-frames back to back", round, i)
			}
			if ob.n != countRecords(want[i]) {
				t.Fatalf("round %d owner %d: %d records, reference %d", round, i, ob.n, countRecords(want[i]))
			}
		}
		s.reset()
	}
}

// midplaneEvents builds n in-order events on the given midplanes,
// cycling through them, each with its own entry text so string adds
// interleave with events throughout the frame.
func midplaneEvents(n int, at []raslog.Location) []raslog.Event {
	base := time.Date(2005, 6, 1, 0, 0, 0, 0, time.UTC)
	events := make([]raslog.Event, n)
	for i := range events {
		events[i] = raslog.Event{
			RecID:     int64(i + 1),
			Type:      "RAS",
			Time:      base.Add(time.Duration(i) * time.Second),
			Location:  at[i%len(at)],
			Facility:  "KERNEL",
			Severity:  raslog.Info,
			EntryData: "entry text " + string(rune('a'+i%26)) + string(rune('a'+i/26%26)),
		}
	}
	return events
}

// ownedBy returns a midplane location the ring assigns to backend i.
func ownedBy(t testing.TB, g *Gate, i int) raslog.Location {
	t.Helper()
	for rack := 0; rack < 64; rack++ {
		loc := raslog.Location{Kind: raslog.KindMidplane, Rack: rack}
		if g.ring.OwnerIndexLocation(loc) == i {
			return loc
		}
	}
	t.Fatalf("no rack in 0..63 is owned by backend %d", i)
	return raslog.Location{}
}

// scanBodies are the shapes the oracle is held over, cut from tail in
// pieces of chunk records; the fuzz target starts from a small set.
func scanBodies(t testing.TB, g *Gate, tail []raslog.Event, chunk int) map[string][]byte {
	t.Helper()
	var multi []byte
	for i := 0; i < 5; i++ {
		multi = append(multi, encodeWire(t, tail[i*chunk:(i+1)*chunk])...)
	}

	// A record whose location prefix cannot be peeked (kind byte 0xEE),
	// between two healthy frames.
	evil := []byte{raslog.WireTagEvent, 1, 0xEE}
	unpeekable := encodeWire(t, tail[:chunk])
	unpeekable = append(raslog.AppendWireFrameHeader(unpeekable, 0, 0, len(evil)), evil...)
	unpeekable = append(unpeekable, encodeWire(t, tail[chunk:2*chunk])...)

	// An unknown record tag at the end of a frame: the walk aborts with
	// the sub-frames all but built, and none of that frame may be routed.
	f, err := raslog.NewWireScanner(bytes.NewReader(encodeWire(t, tail[:chunk]))).Next()
	if err != nil {
		t.Fatal(err)
	}
	payload := append(bytes.Clone(f.Payload), 0x7F)
	unwalkable := append(raslog.AppendWireFrameHeader(nil, f.BaseSec, f.BaseRecID, len(payload)), payload...)

	// One event for backend 1 in a frame otherwise all backend 0's: its
	// sub-frame needs a shorter length field than the source frame's.
	locs := make([]raslog.Location, 2*chunk)
	for i := range locs {
		locs[i] = ownedBy(t, g, 0)
	}
	locs[chunk] = ownedBy(t, g, 1)
	lopsided := encodeWire(t, midplaneEvents(len(locs), locs))

	return map[string][]byte{
		"whole tail":       encodeWire(t, tail),
		"multi-frame":      multi,
		"unpeekable":       unpeekable,
		"unwalkable frame": append(encodeWire(t, tail[chunk:2*chunk]), unwalkable...),
		"truncated frame":  multi[:len(multi)-7],
		"lopsided split":   lopsided,
		"empty":            nil,
		"garbage":          []byte("GARBAGE"),
	}
}

// TestRouteFrameMatchesReference holds the in-place, pooled routing
// scan byte-equal to the assembler it replaced.
func TestRouteFrameMatchesReference(t *testing.T) {
	g := scanGate(t)
	_, tail := fixture(t)
	if len(tail) > 20000 {
		tail = tail[:20000]
	}
	for name, body := range scanBodies(t, g, tail, 300) {
		t.Run(name, func(t *testing.T) { checkScanMatchesReference(t, g, body) })
	}
}

// FuzzGateSubframes is the same comparison over arbitrary bodies,
// seeded with the same shapes at a size the mutator can work on.
func FuzzGateSubframes(f *testing.F) {
	g := scanGate(f)
	mixed := []raslog.Location{ownedBy(f, g, 0), ownedBy(f, g, 1), {}, {Kind: raslog.KindRack, Rack: 200}}
	for _, body := range scanBodies(f, g, midplaneEvents(16, mixed), 2) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkScanMatchesReference(t, g, body) })
}

// TestRouteFrameZeroAllocs bounds the steady-state scan: with a warm
// scratch, routing a 4096-record body into per-owner sub-frames
// allocates nothing.
func TestRouteFrameZeroAllocs(t *testing.T) {
	g := scanGate(t)
	_, tail := fixture(t)
	body := encodeWire(t, tail[:4096])
	s := g.scratch.New().(*routeScratch)
	var br bytes.Reader
	run := func() {
		br.Reset(body)
		var resp IngestResponse
		if code := g.ingestWire(&br, &resp, s); code != http.StatusOK {
			t.Fatalf("status %d: %s", code, resp.Error)
		}
		var n int64
		for i := range s.owners {
			n += s.owners[i].n
		}
		if n != 4096 {
			t.Fatalf("routed %d records, want 4096", n)
		}
		s.reset()
	}
	run() // warm the scanner and the owners' buffers
	if avg := testing.AllocsPerRun(50, run); avg != 0 {
		t.Fatalf("steady-state routing scan allocates %.1f allocs/run, want 0", avg)
	}
}

// BenchmarkRouteFrame times the gate's wire pass-through alone, as
// ingestWire drives it for one request: 4096-record WireWriter bodies
// of the second half of a 4-rack ANL ×0.25 bglsim log at seed 1 (go run
// ./bench's tail), each scanned and split into two owners' sub-frames
// over one warm scratch. It reports ns/record; one op is one body.
//
//	go test -run '^$' -bench BenchmarkRouteFrame -benchtime 300x ./internal/cluster
func BenchmarkRouteFrame(b *testing.B) {
	p := bglsim.ANLProfile().Scaled(0.25)
	p.Machine.Racks, p.Seed = 4, 1 // go run ./bench's dataset at its default seed
	gen, err := bglsim.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	tail := gen.Events[len(gen.Events)/2:]
	var bodies [][]byte
	for len(tail) > 0 {
		n := min(len(tail), 4096)
		bodies, tail = append(bodies, encodeWire(b, tail[:n])), tail[n:]
	}
	gen, tail = nil, nil
	runtime.GC() // the generated log goes before the clock starts

	g := scanGate(b)
	s := g.scratch.New().(*routeScratch)
	var br bytes.Reader
	var records int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Reset(bodies[i%len(bodies)])
		var resp IngestResponse
		if code := g.ingestWire(&br, &resp, s); code != http.StatusOK {
			b.Fatalf("status %d: %s", code, resp.Error)
		}
		for j := range s.owners {
			records += s.owners[j].n
		}
		s.reset()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
}
