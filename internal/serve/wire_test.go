package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"bglpred/internal/catalog"
	"bglpred/internal/raslog"
)

// encodeWire renders events as binary wire frames.
func encodeWire(t *testing.T, events []raslog.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := raslog.NewWireWriter(&buf)
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

// postWire ingests a binary wire body through the handler.
func postWire(t *testing.T, s *Server, body []byte) IngestResponse {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
	req.Header.Set("Content-Type", raslog.WireContentType)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("wire ingest: status %d: %s", rec.Code, rec.Body.String())
	}
	var resp IngestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// alertsJSON fetches the raw /v1/alerts body for byte-level compare.
func alertsJSON(t *testing.T, s *Server) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/alerts", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("alerts: status %d", rec.Code)
	}
	return rec.Body.Bytes()
}

// TestWireIngestMatchesTextIngest is the serve-level differential: the
// same held-out tail through the text path and the binary wire path
// must produce byte-equal /v1/alerts bodies — the wire is an encoding
// of the same stream, not a second ingestion semantics. A single shard
// makes the whole body deterministic (one engine, one alert order);
// the 4-shard leg compares each shard's alert subsequence, since the
// merged ring's cross-shard interleaving is scheduling-dependent on
// the text path too.
func TestWireIngestMatchesTextIngest(t *testing.T) {
	meta, tail := fixture(t)

	feed := func(srv *Server, wire bool) {
		t.Helper()
		// Several requests each, crossing request and frame boundaries.
		third := len(tail) / 3
		for _, chunk := range [][]raslog.Event{tail[:third], tail[third : 2*third], tail[2*third:]} {
			var resp IngestResponse
			if wire {
				resp = postWire(t, srv, encodeWire(t, chunk))
			} else {
				resp = post(t, srv, encode(t, chunk))
			}
			if resp.Accepted != int64(len(chunk)) || resp.Quarantined != 0 {
				t.Fatalf("wire=%v: accepted %d of %d, quarantined %d", wire, resp.Accepted, len(chunk), resp.Quarantined)
			}
		}
	}

	// Leg 1: one shard, whole-body byte equality.
	textSrv := New(meta, Config{Shards: 1, History: 1 << 16, Window: 30 * time.Minute})
	wireSrv := New(meta, Config{Shards: 1, History: 1 << 16, Window: 30 * time.Minute})
	defer textSrv.Close()
	defer wireSrv.Close()
	feed(textSrv, false)
	feed(wireSrv, true)
	if len(getAlerts(t, textSrv).Recent) == 0 {
		t.Fatal("text path raised no alerts; the differential is vacuous")
	}
	gotText, gotWire := alertsJSON(t, textSrv), alertsJSON(t, wireSrv)
	if !bytes.Equal(gotText, gotWire) {
		t.Fatalf("single-shard alert bodies diverge:\ntext %s\nwire %s", gotText, gotWire)
	}

	// Leg 2: four shards, per-shard subsequence equality (seq is a
	// global arrival stamp, so it is masked before comparing).
	textSh := New(meta, Config{Shards: 4, History: 1 << 16, Window: 30 * time.Minute})
	wireSh := New(meta, Config{Shards: 4, History: 1 << 16, Window: 30 * time.Minute})
	defer textSh.Close()
	defer wireSh.Close()
	feed(textSh, false)
	feed(wireSh, true)
	perShard := func(srv *Server) map[int][]string {
		out := make(map[int][]string)
		for _, a := range getAlerts(t, srv).Recent {
			a.Seq = 0
			b, err := json.Marshal(a)
			if err != nil {
				t.Fatal(err)
			}
			out[a.Shard] = append(out[a.Shard], string(b))
		}
		return out
	}
	wantBy, gotBy := perShard(textSh), perShard(wireSh)
	if len(wantBy) < 2 {
		t.Fatalf("alerts landed on %d shards; the sharded leg is degenerate", len(wantBy))
	}
	for sh, want := range wantBy {
		got := gotBy[sh]
		if len(got) != len(want) {
			t.Fatalf("shard %d: wire raised %d alerts, text %d", sh, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shard %d alert %d diverges:\ntext %s\nwire %s", sh, i, want[i], got[i])
			}
		}
	}
}

// TestWireIngestQuarantinesCorruptRecords pins the lenient wire path:
// an undecodable event record inside an otherwise-valid frame is
// quarantined and counted, never dropped, and never kills the frame's
// other records.
func TestWireIngestQuarantinesCorruptRecords(t *testing.T) {
	meta, tail := fixture(t)
	s := New(meta, Config{Shards: 2, History: 1 << 16, Window: 30 * time.Minute})
	defer s.Close()

	n := 20
	body := encodeWire(t, tail[:n])
	evil := []byte{raslog.WireTagEvent, 1, 0xEE}
	frame := raslog.AppendWireFrameHeader(nil, 0, 0, len(evil))
	frame = append(frame, evil...)
	body = append(body, frame...)

	resp := postWire(t, s, body)
	if resp.Accepted != int64(n) {
		t.Fatalf("accepted %d, want the %d valid records", resp.Accepted, n)
	}
	if resp.Quarantined != 1 {
		t.Fatalf("quarantined %d, want the 1 corrupt record", resp.Quarantined)
	}

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/quarantine", nil))
	var q QuarantineResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &q); err != nil {
		t.Fatal(err)
	}
	if q.Total != 1 {
		t.Fatalf("quarantine total %d, want 1", q.Total)
	}
}

// TestWireIngestRejectsCorruptFrame pins frame-level strictness: a
// body whose frame header lies fails the request with a 400 after the
// preceding intact frames were ingested.
func TestWireIngestRejectsCorruptFrame(t *testing.T) {
	meta, tail := fixture(t)
	s := New(meta, Config{Shards: 1, History: 1 << 16, Window: 30 * time.Minute})
	defer s.Close()

	n := 10
	body := encodeWire(t, tail[:n])
	body = append(body, []byte("GARBAGE-NOT-A-FRAME")...)

	req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
	req.Header.Set("Content-Type", raslog.WireContentType)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("corrupt frame: status %d, want 400", rec.Code)
	}
	var resp IngestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != int64(n) {
		t.Fatalf("accepted %d of the %d records before the corruption", resp.Accepted, n)
	}
	if resp.Error == "" {
		t.Fatal("response lacks the stream-level error")
	}
}

// TestIngestQuarantinesOutOfRangeTimes: a record dated outside
// 1970–2262 is undecodable in either dialect, so no engine subtracts
// its time. The writers refuse such a record, so the bodies are written
// at good times and redated.
func TestIngestQuarantinesOutOfRangeTimes(t *testing.T) {
	meta, tail := fixture(t)
	in := catalog.NewInterner(0)
	i := slices.IndexFunc(tail, func(ev raslog.Event) bool { _, ok := in.Classify(&ev); return ok })
	if i < 0 {
		t.Fatal("the tail has no classifiable record")
	}
	const layout = "2006-01-02 15:04:05"
	pair := []raslog.Event{tail[i], tail[i]}
	pair[1].RecID++
	var text, wire []byte
	for k, at := range []time.Time{time.Date(1900, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC)} {
		text = append(text, bytes.Replace(encode(t, pair[k:k+1]), []byte(pair[k].Time.Format(layout)), []byte(at.Format(layout)), 1)...)
		f, err := raslog.NewWireScanner(bytes.NewReader(encodeWire(t, pair[k:k+1]))).Next()
		if err != nil {
			t.Fatal(err)
		}
		wire = append(raslog.AppendWireFrameHeader(wire, at.Unix(), f.BaseRecID, len(f.Payload)), f.Payload...)
	}
	for _, binary := range []bool{false, true} {
		s := New(meta, Config{Shards: 1, Window: 30 * time.Minute})
		var resp IngestResponse
		if binary {
			resp = postWire(t, s, wire)
		} else {
			resp = post(t, s, text)
		}
		if c := s.shards[0].engine().Counters(); resp.Accepted != 0 || resp.Quarantined != 2 || c.Ingested != 0 || c.Unique != 0 {
			t.Errorf("wire=%v: accepted %d, quarantined %d; the engine ingested %d, %d unique; want both records in quarantine",
				binary, resp.Accepted, resp.Quarantined, c.Ingested, c.Unique)
		}
		s.Close()
	}
}
