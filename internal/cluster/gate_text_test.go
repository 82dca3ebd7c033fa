package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"bglpred/internal/catalog"
	"bglpred/internal/online"
	"bglpred/internal/predictor"
	"bglpred/internal/preprocess"
	"bglpred/internal/raslog"
	"bglpred/internal/serve"
)

// wireSinks stands in for two backends that speak only wire: each
// ingest body decodes strictly into its backend's event list, in
// arrival order, and every ingest POST's Content-Type is noted. A
// backend marked down answers 503, so its share parks for replay.
type wireSinks struct {
	mu     sync.Mutex
	events [2][]raslog.Event
	types  []string
	down   [2]bool
}

func (ws *wireSinks) ingest(i int, w http.ResponseWriter, r *http.Request) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	ws.types = append(ws.types, r.Header.Get("Content-Type"))
	if ws.down[i] {
		http.Error(w, "down", http.StatusServiceUnavailable)
		return
	}
	d := raslog.NewWireDecoder(r.Body)
	for {
		evs, err := d.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ws.events[i] = append(ws.events[i], evs...)
	}
	io.WriteString(w, `{}`)
}

func (ws *wireSinks) setDown(i int, down bool) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	ws.down[i] = down
}

// checkAllWire fails t unless every ingest POST carried wire frames.
func (ws *wireSinks) checkAllWire(t *testing.T) {
	t.Helper()
	ws.mu.Lock()
	defer ws.mu.Unlock()
	for _, ct := range ws.types {
		if ct != raslog.WireContentType {
			t.Fatalf("a forward carried Content-Type %q; the gate forwards wire frames only (all: %q)", ct, ws.types)
		}
	}
}

// onWire is ev as a wire frame carries it: whole seconds, in UTC.
func onWire(ev raslog.Event) raslog.Event {
	ev.Time = time.Unix(ev.Time.Unix(), 0).UTC()
	return ev
}

// TestGateTextAndWireDeliverSameEvents posts the same records as text
// to one fresh two-backend cluster and as wire to another, with backend
// 1 down for the last two thirds so its share goes through the replay
// drain. Each backend must receive the same decoded events from both —
// its ring share, in order — and every forward, direct or drained, must
// carry wire frames.
func TestGateTextAndWireDeliverSameEvents(t *testing.T) {
	_, tail := fixture(t)
	events := tail[:3000]
	third := len(events) / 3
	run := func(wire bool) ([2][]raslog.Event, *Ring) {
		ws := &wireSinks{}
		g, _ := stubCluster(t, nil, ws.ingest)
		post := func(evs []raslog.Event) {
			var resp IngestResponse
			if wire {
				resp = gatePostWire(t, g, encodeWire(t, evs))
			} else {
				resp = gatePost(t, g, encode(t, evs))
			}
			if resp.Accepted != int64(len(evs)) || resp.Quarantined != 0 {
				t.Fatalf("ingest = %+v, want all %d accepted", resp, len(evs))
			}
		}
		post(events[:third])
		ws.setDown(1, true)
		post(events[third : 2*third])
		post(events[2*third:])
		ws.setDown(1, false)
		g.ProbeNow()
		if st := gateStatus(t, g).Backends[1]; st.Replayed == 0 || st.ReplayBuffered != 0 {
			t.Fatalf("backend 1 after recovery: %+v; want its backlog replayed", st)
		}
		ws.checkAllWire(t)
		return ws.events, g.Ring()
	}
	text, ring := run(false)
	wire, _ := run(true)
	for i := range text {
		var want []raslog.Event
		for _, ev := range events {
			if ring.OwnerIndexLocation(ev.Location) == i {
				want = append(want, onWire(ev))
			}
		}
		if len(want) == 0 {
			t.Fatalf("backend %d owns nothing; the comparison is degenerate", i)
		}
		if !slices.Equal(text[i], wire[i]) {
			t.Fatalf("backend %d: text cluster delivered %d events, wire cluster %d, or they differ", i, len(text[i]), len(wire[i]))
		}
		if !slices.Equal(text[i], want) {
			t.Fatalf("backend %d: delivered %d events, not its ring share of %d in order", i, len(text[i]), len(want))
		}
	}
}

// FuzzGateTextMatchesReader posts arbitrary newline-delimited bodies as
// text through a gate over two wire-decoding stubs. Each backend must
// receive, in order, exactly the events a lenient raslog.Reader decodes
// from the body and Ring.OwnerIndexLocation assigns it, as the wire
// carries them. The gate must quarantine exactly the lines the reader
// skips plus the records the wire writer refuses, answer 400 exactly
// when the reader's stream fails, and forward wire frames only.
func FuzzGateTextMatchesReader(f *testing.F) {
	locs := []raslog.Location{{Kind: raslog.KindMidplane}, {Kind: raslog.KindNodeCard, Rack: 3, Midplane: 1, Card: 4}, {}}
	for _, seed := range []string{
		string(encode(f, midplaneEvents(8, locs))),
		// A refusal seed: an NDJSON object is no record in the one text
		// spelling, so the reader skips it and the gate quarantines it.
		`{"recid":7,"type":"RAS","time":"2005-06-01 00:00:07","jobid":1,"location":"R02-M1-N03","facility":"APP","severity":"FATAL","entry_data":"json|with pipe"}` + "\n",
		"garbage line\n1|RAS|2005-06-01 00:00:00|0|R00-M0|KERNEL|INFO|stray|pipe\n",
		"2||2005-06-01 00:00:00|0|R00-M0|KERNEL|INFO|empty type\n# comment\n\r\n",
		"3|RAS|2005-06-01 00:00:00|0|R4294967296-M0|KERNEL|INFO|rack out of wire range\n",
		"4|RAS|2005-06-01 00:00:00|0|?|KERNEL|WARNING|unknown location",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		ws := &wireSinks{}
		g, _ := stubCluster(t, nil, ws.ingest)

		var want [2][]raslog.Event
		var refused int64
		rd := raslog.NewReader(bytes.NewReader(body)).Lenient(nil)
		var rerr error
		for {
			var ev raslog.Event
			if ev, rerr = rd.Read(); rerr != nil {
				break
			}
			if raslog.NewWireWriter(io.Discard).Write(&ev) != nil {
				refused++
				continue
			}
			owner := g.Ring().OwnerIndexLocation(ev.Location)
			want[owner] = append(want[owner], onWire(ev))
		}

		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)))
		wantCode := http.StatusOK
		if rerr != io.EOF {
			wantCode = http.StatusBadRequest
		}
		if rec.Code != wantCode {
			t.Fatalf("status %d, want %d (reader ended with %v): %s", rec.Code, wantCode, rerr, rec.Body.String())
		}
		for i := range want {
			if !slices.Equal(ws.events[i], want[i]) {
				t.Fatalf("backend %d received\n %+v\nreader and ring give\n %+v", i, ws.events[i], want[i])
			}
		}
		if got, _ := g.quarantine.Counts(); got != rd.SkippedLines()+refused {
			t.Fatalf("gate quarantined %d, reader skipped %d and the wire refused %d", got, rd.SkippedLines(), refused)
		}
		ws.checkAllWire(t)
	})
}

// observedServer is a single-shard bglserved whose engine hook records,
// in request order, every record its engine accepts.
func observedServer(t *testing.T, meta *predictor.Meta) (*serve.Server, func() []raslog.Event) {
	t.Helper()
	var mu sync.Mutex
	var seen []raslog.Event
	srv := serve.New(meta, serve.Config{
		Shards:  1,
		History: 1 << 16,
		Window:  30 * time.Minute,
		OnRecord: func(int) online.RecordFunc {
			return func(ev *raslog.Event, _ *catalog.Subcategory, _ preprocess.Verdict, _ int) {
				mu.Lock()
				seen = append(seen, *ev)
				mu.Unlock()
			}
		},
	})
	t.Cleanup(func() { srv.Close() })
	return srv, func() []raslog.Event {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(seen)
	}
}

// TestGateStrayPipeMatchesSingleNode: a line with a stray pipe in its
// entry text, which the lenient reader decodes, reaches its owner's
// engine through the gate exactly as a direct POST puts it into a
// single node's — the gate and a node accept the same records.
func TestGateStrayPipeMatchesSingleNode(t *testing.T) {
	meta, tail := fixture(t)
	stray := "999|APPFAIL|" + tail[9].Time.UTC().Format("2006-01-02 15:04:05") + "|0|R00-M0|KERNEL|FATAL|stray|pipe in entry data\n"
	body := append(encode(t, tail[:10]), stray...)

	single, singleSeen := observedServer(t, meta)
	servePost(t, single, body)
	want := singleSeen()
	if len(want) != 11 || want[10].EntryData != "stray|pipe in entry data" {
		t.Fatalf("single node took %d records; want all 11, the last with its stray pipe", len(want))
	}

	tr := newHostTransport()
	var hosts []string
	var seen []func() []raslog.Event
	for i := 0; i < 2; i++ {
		srv, get := observedServer(t, meta)
		host := fmt.Sprintf("b%d.cluster.test", i)
		tr.set(host, srv)
		hosts = append(hosts, "http://"+host)
		seen = append(seen, get)
	}
	g, err := New(Config{Backends: hosts, Client: &http.Client{Transport: tr}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	g.ProbeNow()
	if resp := gatePost(t, g, body); resp.Routed != 11 || resp.Quarantined != 0 {
		t.Fatalf("gate ingest = %+v, want all 11 routed, none quarantined", resp)
	}
	for i := range hosts {
		var owned []raslog.Event
		for _, ev := range want {
			if g.Ring().OwnerIndexLocation(ev.Location) == i {
				owned = append(owned, ev)
			}
		}
		if got := seen[i](); !slices.Equal(got, owned) {
			t.Fatalf("backend %d engine saw %+v, want the single node's share %+v", i, got, owned)
		}
	}
}

// TestGateQuarantinesEmptyType pins a line the writers cannot spell:
// a record with an empty TYPE fails Validate, so the text decoder
// refuses it as the wire does. It parks in the gate's own quarantine
// under the client's line number, visible on /v1/quarantine and
// /metrics, and no backend receives it.
func TestGateQuarantinesEmptyType(t *testing.T) {
	meta, tail := fixture(t)
	tc := newTestCluster(t, meta, []string{"sha-v1", "sha-v1"}, nil)
	tc.gate.ProbeNow()

	bad := "999||2005-06-01 10:00:00|0|R00-M0|KERNEL|FATAL|no event type\n"
	if _, err := raslog.NewReader(strings.NewReader(bad)).Read(); err == nil || !strings.Contains(err.Error(), "empty event type") {
		t.Fatalf("the text decoder read the empty-type fixture line, error %v", err)
	}
	resp := gatePost(t, tc.gate, append(encode(t, tail[:10]), bad...))
	if resp.Routed != 10 || resp.Accepted != 10 || resp.Quarantined != 1 {
		t.Fatalf("ingest = %+v, want 10 routed and accepted, 1 quarantined", resp)
	}
	total := 0
	for i := range tc.backends {
		total += len(tc.backends[i].delivered())
	}
	if total != 10 {
		t.Fatalf("backends received %d records, want 10", total)
	}

	rec := httptest.NewRecorder()
	tc.gate.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/quarantine", nil))
	var q serve.QuarantineResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &q); err != nil {
		t.Fatal(err)
	}
	if q.Total != 1 || len(q.Recent) != 1 || q.Recent[0].Line != 11 || !strings.Contains(q.Recent[0].Raw, "no event type") {
		t.Fatalf("gate quarantine %+v, want the empty-type record at line 11", q)
	}

	mrec := httptest.NewRecorder()
	tc.gate.ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(mrec.Body.String(), "\nbglgate_quarantined_total 1\n") {
		t.Fatal("metrics lack bglgate_quarantined_total 1")
	}
}

// TestServeAndGateAgreeOnLocationDomain posts one text body holding a
// location neither writer can spell, rack 2^32, between good records
// straight to a node and through the gate: both must count the same
// records accepted and quarantined.
func TestServeAndGateAgreeOnLocationDomain(t *testing.T) {
	meta, tail := fixture(t)
	odd := tail[2]
	odd.RecID = 999
	line := string(encode(t, []raslog.Event{odd}))
	spelled := "|" + odd.Location.String() + "|"
	if !strings.Contains(line, spelled) {
		t.Fatalf("line %q does not spell %q", line, spelled)
	}
	body := append(append(encode(t, tail[:3]), strings.Replace(line, spelled, "|R4294967296-M0|", 1)...), encode(t, tail[3:5])...)

	node := serve.New(meta, serve.Config{Shards: 1, History: 1 << 16, Window: 30 * time.Minute})
	t.Cleanup(func() { node.Close() })
	rec := httptest.NewRecorder()
	node.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)))
	var direct serve.IngestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &direct); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("node ingest: status %d, %v: %s", rec.Code, err, rec.Body.String())
	}

	tc := newTestCluster(t, meta, []string{"sha-v1", "sha-v1"}, nil)
	tc.gate.ProbeNow()
	gated := gatePost(t, tc.gate, body)
	if direct.Accepted != 5 || direct.Quarantined != 1 || gated.Accepted != direct.Accepted || gated.Quarantined != direct.Quarantined {
		t.Fatalf("node accepted %d and quarantined %d, gate %d and %d; want 5 and 1 from both",
			direct.Accepted, direct.Quarantined, gated.Accepted, gated.Quarantined)
	}
}
