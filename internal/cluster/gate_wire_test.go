package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bglpred/internal/raslog"
)

// encodeWire renders events as binary wire frames.
func encodeWire(t testing.TB, events []raslog.Event) []byte {
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

// gatePostWire ingests a binary wire body through the gate handler.
func gatePostWire(t *testing.T, g *Gate, body []byte) IngestResponse {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
	req.Header.Set("Content-Type", raslog.WireContentType)
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("gate wire ingest: status %d: %s", rec.Code, rec.Body.String())
	}
	var resp IngestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestRingOwnerIndexLocationEquivalence pins the gate peek path's
// allocation-free routing — the memoised owner for the keys a real
// machine emits, the hashed key bytes for the rest — to the canonical
// string path: for every location shape the two must agree, or binary
// and text ingest would partition the same stream differently.
func TestRingOwnerIndexLocationEquivalence(t *testing.T) {
	ring := NewRing([]string{"http://a", "http://b", "http://c"}, 0)
	kinds := []raslog.LocationKind{
		raslog.KindUnknown, raslog.KindRack, raslog.KindMidplane,
		raslog.KindNodeCard, raslog.KindComputeChip, raslog.KindIONode,
		raslog.KindServiceCard, raslog.KindLinkCard,
	}
	check := func(loc raslog.Location) {
		t.Helper()
		want := ring.OwnerIndex(LocationKey(loc))
		got := ring.OwnerIndexLocation(loc)
		if got != want {
			t.Fatalf("OwnerIndexLocation(%+v) = %d, OwnerIndex(%q) = %d", loc, got, LocationKey(loc), want)
		}
	}
	// Every kind over every memoised rack and midplane, across the
	// memo's bounds on both axes, and negative fields (which a wire body
	// cannot carry but a caller can).
	for _, kind := range kinds {
		for rack := -2; rack < ownerMemoRacks+3; rack++ {
			for mp := -1; mp < 4; mp++ {
				check(raslog.Location{Kind: kind, Rack: rack, Midplane: mp, Card: 3, Chip: 7})
			}
		}
	}
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 5000; i++ {
		check(raslog.Location{
			Kind:     kinds[rng.Intn(len(kinds))],
			Rack:     rng.Intn(4 * ownerMemoRacks),
			Midplane: rng.Intn(3),
			Card:     rng.Intn(16),
			Chip:     rng.Intn(32),
		})
	}
	check(raslog.Location{Kind: raslog.KindRack, Rack: 1 << 40})
	check(raslog.Location{Kind: raslog.LocationKind(99), Rack: 1}) // no such kind
	if got := NewRing(nil, 0).OwnerIndexLocation(raslog.Location{}); got != -1 {
		t.Fatalf("empty ring owner = %d, want -1", got)
	}
}

// TestGateWireRoutesByRing is TestGateRoutesByRing over the binary
// wire: the pass-through path must deliver every backend exactly the
// records the ring assigns it, in order, without the gate ever
// decoding an event body.
func TestGateWireRoutesByRing(t *testing.T) {
	meta, tail := fixture(t)
	n := 2000
	if n > len(tail) {
		n = len(tail)
	}
	events := tail[:n]
	tc := newTestCluster(t, meta, []string{"sha-v1", "sha-v1"}, nil)
	tc.gate.ProbeNow()

	resp := gatePostWire(t, tc.gate, encodeWire(t, events))
	if resp.Accepted != int64(n) || resp.Routed != int64(n) || resp.Buffered != 0 {
		t.Fatalf("wire ingest = %+v, want %d routed, 0 buffered", resp, n)
	}

	want := expectedSplit(t, tc.gate, events)
	for i, host := range tc.hosts {
		got := tc.backends[i].delivered()
		if len(got) != len(want[host]) {
			t.Fatalf("backend %s received %d records, ring owns %d", host, len(got), len(want[host]))
		}
		for j := range got {
			if got[j] != want[host][j] {
				t.Fatalf("backend %s record %d:\n got %q\nwant %q", host, j, got[j], want[host][j])
			}
		}
	}
}

// TestGateWireFailoverReplay exercises the replay buffer with wire
// frames: parked sub-frames must survive the outage and drain in
// order, with record-granular accounting.
func TestGateWireFailoverReplay(t *testing.T) {
	meta, tail := fixture(t)
	n := 1200
	if n > len(tail) {
		n = len(tail)
	}
	events := tail[:n]
	tc := newTestCluster(t, meta, []string{"sha-v1", "sha-v1"}, nil)
	tc.gate.ProbeNow()
	want := expectedSplit(t, tc.gate, events)
	downURL := tc.hosts[1]

	half := n / 2
	r1 := gatePostWire(t, tc.gate, encodeWire(t, events[:half]))
	if r1.Buffered != 0 || r1.Routed != int64(half) {
		t.Fatalf("phase 1: %+v", r1)
	}

	tc.transport.setDown("b1.cluster.test", true)
	r2 := gatePostWire(t, tc.gate, encodeWire(t, events[half:]))
	if r2.Accepted != int64(n-half) {
		t.Fatalf("phase 2 accepted %d of %d; an outage must not drop records", r2.Accepted, n-half)
	}
	if r2.Buffered == 0 {
		t.Fatal("no records buffered while a backend was down")
	}

	tc.transport.setDown("b1.cluster.test", false)
	tc.gate.ProbeNow()

	got := tc.backends[1].delivered()
	if len(got) != len(want[downURL]) {
		t.Fatalf("backend %s received %d records across the outage, owns %d", downURL, len(got), len(want[downURL]))
	}
	for j := range got {
		if got[j] != want[downURL][j] {
			t.Fatalf("replayed record %d out of order:\n got %q\nwant %q", j, got[j], want[downURL][j])
		}
	}
}

// TestGateTextBinaryDifferential feeds the same tail through a
// text-fed cluster and a wire-fed cluster and requires byte-equal
// merged alert streams — the wire is an encoding, not a semantic
// fork.
func TestGateTextBinaryDifferential(t *testing.T) {
	meta, tail := fixture(t)
	// Failure alerts are rare; the full held-out tail keeps the
	// comparison non-vacuous (the chaos test pins that it alerts).
	events := tail

	canon := func(tc *testCluster, body []byte, wire bool) []string {
		tc.gate.ProbeNow()
		if wire {
			gatePostWire(t, tc.gate, body)
		} else {
			gatePost(t, tc.gate, body)
		}
		resp := gateAlerts(t, tc.gate)
		out := make([]string, 0, len(resp.Recent))
		for _, a := range resp.Recent {
			out = append(out, CanonicalAlertLine(a))
		}
		return out
	}
	textAlerts := canon(newTestCluster(t, meta, []string{"sha-v1", "sha-v1"}, nil), encode(t, events), false)
	wireAlerts := canon(newTestCluster(t, meta, []string{"sha-v1", "sha-v1"}, nil), encodeWire(t, events), true)

	if len(textAlerts) == 0 {
		t.Fatal("fixture tail raised no alerts; the differential is vacuous")
	}
	if len(textAlerts) != len(wireAlerts) {
		t.Fatalf("text cluster raised %d alerts, wire cluster %d", len(textAlerts), len(wireAlerts))
	}
	for i := range textAlerts {
		if textAlerts[i] != wireAlerts[i] {
			t.Fatalf("alert %d diverges:\ntext %s\nwire %s", i, textAlerts[i], wireAlerts[i])
		}
	}
}

// TestGateWireCorruptEventRoutesToUnknown pins the peek-failure path:
// an event record whose location prefix cannot be peeked still
// forwards (to the unknown-location owner) rather than aborting the
// frame, and the receiving backend quarantines it.
func TestGateWireCorruptEventRoutesToUnknown(t *testing.T) {
	meta, tail := fixture(t)
	tc := newTestCluster(t, meta, []string{"sha-v1", "sha-v1"}, nil)
	tc.gate.ProbeNow()

	n := 50
	body := encodeWire(t, tail[:n])
	// Append a frame holding a single undecodable event record: kind
	// byte 0xEE peeks as garbage.
	evil := []byte{raslog.WireTagEvent, 1, 0xEE}
	frame := raslog.AppendWireFrameHeader(nil, 0, 0, len(evil))
	frame = append(frame, evil...)
	body = append(body, frame...)

	resp := gatePostWire(t, tc.gate, body)
	if resp.Routed != int64(n)+1 {
		t.Fatalf("routed %d, want %d records + 1 raw forward of the corrupt one", resp.Routed, n)
	}
	if resp.Quarantined != 1 {
		t.Fatalf("quarantined %d, want the corrupt record quarantined at its backend", resp.Quarantined)
	}
	// The gate itself quarantined nothing — the record was forwarded.
	if got, _ := tc.gate.quarantine.Counts(); got != 0 {
		t.Fatalf("gate quarantine total = %d, want 0 (corrupt wire events forward to a backend)", got)
	}
}

// TestWireFramingErrorSameAtBothHops posts one wire frame whose event
// record carries a length over the cap to a server and through a gate.
// Both walk a frame's records with one framing check, so both refuse
// the frame with 400 and name the same error.
func TestWireFramingErrorSameAtBothHops(t *testing.T) {
	meta, tail := fixture(t)
	tc := newTestCluster(t, meta, []string{"sha-v1", "sha-v1"}, nil)
	tc.gate.ProbeNow()

	f, err := raslog.NewWireScanner(bytes.NewReader(encodeWire(t, tail[:10]))).Next()
	if err != nil {
		t.Fatal(err)
	}
	var payload []byte
	events := 0
	if err := f.Records(func(tag byte, raw, _ []byte) error {
		if tag == raslog.WireTagEvent {
			if events++; events == 4 {
				raw = []byte{raslog.WireTagEvent, 0xff, 0xff, 0x7f} // 2 MiB - 1, over the event body cap
			}
		}
		payload = append(payload, raw...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	body := append(raslog.AppendWireFrameHeader(nil, f.BaseSec, f.BaseRecID, len(payload)), payload...)

	var replies [2]IngestResponse
	for i, h := range []http.Handler{tc.servers[0], tc.gate} {
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
		req.Header.Set("Content-Type", raslog.WireContentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("hop %d: status %d, want 400: %s", i, rec.Code, rec.Body.Bytes())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &replies[i]); err != nil {
			t.Fatal(err)
		}
	}
	if replies[0].Error != replies[1].Error || !strings.Contains(replies[0].Error, "bad event length at ") {
		t.Fatalf("server error %q, gate error %q; want one \"bad event length\" error", replies[0].Error, replies[1].Error)
	}
	if replies[0].Accepted != 0 || replies[1].Routed != 0 {
		t.Fatalf("server accepted %d, gate routed %d; a frame whose framing breaks yields none of its events", replies[0].Accepted, replies[1].Routed)
	}
}

// TestGateReplayCountsRecords parks a multi-frame wire body behind a
// down backend whose replay cap is a few hundred records: the cap
// bounds records, not sub-frames, and every record the buffer took is
// accounted for after recovery — rerouted = replayed + dropped +
// buffered, in records.
func TestGateReplayCountsRecords(t *testing.T) {
	meta, tail := fixture(t)
	tc := newTestCluster(t, meta, []string{"sha-v1", "sha-v1"}, nil)
	const replayCap = 300
	tc.gate.backends[1].replay = newReplayBuffer(replayCap, 0)
	tc.gate.ProbeNow()

	var body []byte
	for i := 0; i < 20; i++ {
		body = append(body, encodeWire(t, tail[i*100:(i+1)*100])...)
	}
	tc.transport.setDown("b1.cluster.test", true)
	resp := gatePostWire(t, tc.gate, body)
	st := gateStatus(t, tc.gate).Backends[1]
	if resp.Buffered != st.Rerouted || st.ReplayBuffered > replayCap || st.ReplayDropped == 0 {
		t.Fatalf("after the outage: %+v (request buffered %d); want at most %d records held, the rest dropped", st, resp.Buffered, replayCap)
	}

	tc.transport.setDown("b1.cluster.test", false)
	tc.gate.ProbeNow()
	st = gateStatus(t, tc.gate).Backends[1]
	if st.ReplayBuffered != 0 || st.Replayed == 0 || st.Rerouted != st.Replayed+st.ReplayDropped+int64(st.ReplayBuffered) {
		t.Fatalf("after recovery: %+v; want rerouted = replayed + dropped + buffered", st)
	}
	if got := int64(len(tc.backends[1].delivered())); got != st.Replayed {
		t.Fatalf("backend 1 received %d records, the gate counts %d replayed", got, st.Replayed)
	}
}

// redate re-emits a one-frame wire body with its k-th event record's
// time set to unix second sec, which the wire writer would refuse to
// encode when a time.Time in int64 nanoseconds cannot hold it.
func redate(t *testing.T, frame []byte, k int, sec int64) []byte {
	t.Helper()
	f, err := raslog.NewWireScanner(bytes.NewReader(frame)).Next()
	if err != nil {
		t.Fatal(err)
	}
	var payload []byte
	i := 0
	if err := f.Records(func(tag byte, raw, content []byte) error {
		if tag == raslog.WireTagEvent {
			i++
		}
		if tag != raslog.WireTagEvent || i-1 != k {
			payload = append(payload, raw...)
			return nil
		}
		// The time delta follows the location: the kind byte, the rack,
		// then as many of midplane, card and chip as the kind has.
		fields := map[raslog.LocationKind]int{
			raslog.KindMidplane: 1, raslog.KindServiceCard: 1, raslog.KindNodeCard: 2,
			raslog.KindLinkCard: 2, raslog.KindComputeChip: 3, raslog.KindIONode: 3,
		}[raslog.LocationKind(content[0])]
		pos := 1
		for j := 0; j <= fields; j++ {
			_, w := binary.Uvarint(content[pos:])
			pos += w
		}
		_, w := binary.Varint(content[pos:])
		body := binary.AppendVarint(bytes.Clone(content[:pos]), sec-f.BaseSec)
		body = append(body, content[pos+w:]...)
		payload = append(binary.AppendUvarint(append(payload, tag), uint64(len(body))), body...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return append(raslog.AppendWireFrameHeader(nil, f.BaseSec, f.BaseRecID, len(payload)), payload...)
}

// TestGateReplayWindowIgnoresUndatableRecord parks 60 frames behind a
// down backend whose replay cap is 300 records, once as they are and
// once with one of its records in frame 11 dated 2300-01-01 — a time
// past int64 nanoseconds that every backend refuses. The gate must not
// date that frame's entry by it: if it did, the backlog would measure
// its one-hour window back from 2300 and keep frame 11's stale entry
// over newer ones. Both runs must leave the same backlog.
func TestGateReplayWindowIgnoresUndatableRecord(t *testing.T) {
	meta, tail := fixture(t)
	const frames, per, bad = 60, 100, 11
	if len(tail) < frames*per {
		t.Fatalf("fixture tail has %d records, want %d", len(tail), frames*per)
	}
	backlog := func(redated bool) []replayEntry {
		tc := newTestCluster(t, meta, []string{"sha-v1", "sha-v1"}, nil)
		tc.gate.backends[1].replay = newReplayBuffer(300, 0)
		tc.gate.ProbeNow()
		tc.transport.setDown("b1.cluster.test", true)
		var body []byte
		for i := 0; i < frames; i++ {
			chunk := tail[i*per : (i+1)*per]
			frame := encodeWire(t, chunk)
			if i == bad && redated {
				k := 0
				for tc.gate.ring.OwnerIndexLocation(chunk[k].Location) != 1 {
					k++
				}
				frame = redate(t, frame, k, time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC).Unix())
			}
			body = append(body, frame...)
			if i == 19 || i == frames-1 { // two requests: 20 frames, then 40 more
				gatePostWire(t, tc.gate, body)
				body = nil
			}
		}
		b := tc.gate.backends[1]
		b.mu.Lock()
		defer b.mu.Unlock()
		return append([]replayEntry(nil), b.replay.entries...)
	}
	want, got := backlog(false), backlog(true)
	if len(got) != len(want) {
		t.Fatalf("backlog holds %d entries (%d records), want the %d newest (%d records)", len(got), countRecords(got), len(want), countRecords(want))
	}
	for i := range want {
		if !bytes.Equal(got[i].line, want[i].line) || !got[i].at.Equal(want[i].at) || got[i].n != want[i].n {
			t.Fatalf("backlog entry %d: %d records at %v, want %d at %v", i, got[i].n, got[i].at, want[i].n, want[i].at)
		}
	}
}

// TestGateWireStringTableSubsetPrefix pins the sub-frame invariant
// directly: a wire stream whose string adds land mid-frame still
// routes losslessly, because each sub-frame copies the source-order
// prefix of string records its events need.
func TestGateWireStringTableSubsetPrefix(t *testing.T) {
	meta, _ := fixture(t)
	tc := newTestCluster(t, meta, []string{"sha-v1", "sha-v1"}, nil)
	tc.gate.ProbeNow()

	// Alternate racks (different owners with high probability) while
	// introducing a fresh EntryData string per record, so string adds
	// interleave with events throughout the frame.
	base := time.Date(2005, 6, 1, 0, 0, 0, 0, time.UTC)
	var events []raslog.Event
	for i := 0; i < 64; i++ {
		events = append(events, raslog.Event{
			RecID:     int64(i + 1),
			Type:      "RAS",
			Time:      base.Add(time.Duration(i) * time.Second),
			Location:  raslog.Location{Kind: raslog.KindMidplane, Rack: i % 8, Midplane: i % 2},
			Facility:  "KERNEL",
			Severity:  raslog.Info,
			EntryData: strings.Repeat("x", i+1), // distinct per record
		})
	}
	resp := gatePostWire(t, tc.gate, encodeWire(t, events))
	if resp.Routed != int64(len(events)) {
		t.Fatalf("routed %d of %d", resp.Routed, len(events))
	}
	want := expectedSplit(t, tc.gate, events)
	for i, host := range tc.hosts {
		got := tc.backends[i].delivered()
		if len(got) != len(want[host]) {
			t.Fatalf("backend %s received %d records, owns %d", host, len(got), len(want[host]))
		}
		for j := range got {
			if got[j] != want[host][j] {
				t.Fatalf("backend %s record %d:\n got %q\nwant %q", host, j, got[j], want[host][j])
			}
		}
	}
}
