package serve

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"bglpred/internal/catalog"
	"bglpred/internal/faultinject"
	"bglpred/internal/online"
	"bglpred/internal/preprocess"
	"bglpred/internal/raslog"
)

var updateContract = flag.Bool("update-contract", false, "rewrite testdata/ingest_contract.golden")

// contractRecords is each contract body's size: with two shards, more
// than wireBatchCap records of each, so both dialects hand a shard a
// full batch mid-body and go on decoding.
const contractRecords = 12000

// TestIngestContractGolden pins what an ingest request does, record by
// record, against testdata/ingest_contract.golden, which the commit
// before the routing decode wrote (-update-contract): a text body with
// two undecodable lines, then one single-frame wire body with two
// corrupt records — each body over wireBatchCap records per shard —
// into two shards with an OnRecord hook and a seeded IngestCorrupt
// plan. The records the hooks saw, sorted by RecID (request order, the
// order the golden lists them in), the replies, the quarantined set and
// each shard's alerts must match. The quarantine's order is not
// pinned: a frame's corrupt records used to be quarantined when the
// whole frame decoded, ahead of its injected faults, and now are
// quarantined where they sit.
func TestIngestContractGolden(t *testing.T) {
	meta, tail := fixture(t)
	if len(tail) < 2*contractRecords {
		t.Fatalf("tail of %d records is too short for two %d-record bodies", len(tail), contractRecords)
	}
	in := faultinject.New(29)
	in.Set(faultinject.IngestCorrupt, faultinject.Plan{Every: 7, Prob: 0.1})
	hooked := make([][]raslog.Event, 2)
	s := New(meta, Config{
		Shards: 2, History: 1 << 16, QuarantineCap: 1 << 12, Window: 30 * time.Minute, Inject: in,
		OnRecord: func(i int) online.RecordFunc {
			return func(ev *raslog.Event, _ *catalog.Subcategory, _ preprocess.Verdict, _ int) {
				hooked[i] = append(hooked[i], *ev)
			}
		},
	})
	defer s.Close()

	text := encode(t, tail[:contractRecords])
	lines := bytes.SplitAfter(text, []byte("\n"))
	text = bytes.Join([][]byte{
		bytes.Join(lines[:5000], nil), []byte("not a record\n"),
		bytes.Join(lines[5000:9000], nil), []byte("1|RAS|garbage\n"),
		bytes.Join(lines[9000:], nil),
	}, nil)
	wire := contractFrame(t, tail[contractRecords:2*contractRecords])

	for lo := 0; lo < 2*contractRecords; lo += contractRecords {
		perShard := make([]int, 2)
		for i := range tail[lo : lo+contractRecords] {
			perShard[s.shardFor(&tail[lo+i].Location).id]++
		}
		if perShard[0] <= wireBatchCap || perShard[1] <= wireBatchCap {
			t.Fatalf("body at %d splits %v over the shards; each needs over %d", lo, perShard, wireBatchCap)
		}
	}

	var got strings.Builder
	for _, b := range []struct {
		body        []byte
		contentType string
	}{{text, "text/plain"}, {wire, raslog.WireContentType}} {
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(b.body))
		req.Header.Set("Content-Type", b.contentType)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		fmt.Fprintf(&got, "%s: HTTP %d %s", b.contentType, rec.Code, rec.Body.String())
	}
	observed := sha256.New()
	ow := raslog.NewWriter(observed)
	all := slices.Concat(hooked...)
	slices.SortFunc(all, func(a, b raslog.Event) int { return cmp.Compare(a.RecID, b.RecID) })
	for i := range all {
		if err := ow.Write(&all[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := ow.Flush(); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&got, "observed %d records, sha256 %x\n", len(all), observed.Sum(nil))

	qrec := httptest.NewRecorder()
	s.ServeHTTP(qrec, httptest.NewRequest(http.MethodGet, "/v1/quarantine", nil))
	var q QuarantineResponse
	if err := json.Unmarshal(qrec.Body.Bytes(), &q); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	for _, r := range q.Recent {
		seen[fmt.Sprintf("line %d %q: %s", r.Line, r.Raw, r.Cause)]++
	}
	var quarantined []string
	for rec, n := range seen {
		quarantined = append(quarantined, fmt.Sprintf("%dx %s", n, rec))
	}
	sort.Strings(quarantined)
	fmt.Fprintf(&got, "quarantined %d (dropped %d):\n%s\n", q.Total, q.Dropped, strings.Join(quarantined, "\n"))

	alerts := getAlerts(t, s)
	byShard := make(map[int][]string)
	for _, a := range alerts.Recent {
		a.Seq = 0 // the merged ring's interleaving across shards is scheduling
		line, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		byShard[a.Shard] = append(byShard[a.Shard], string(line))
	}
	for shard := 0; shard < 2; shard++ {
		fmt.Fprintf(&got, "shard %d: %d alerts\n%s\n", shard, len(byShard[shard]), strings.Join(byShard[shard], "\n"))
	}

	path := filepath.Join("testdata", "ingest_contract.golden")
	if *updateContract {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("ingest contract drifted from %s:\n got:\n%s\nwant:\n%s", path, got.String(), want)
	}
	if fires := in.Fires(faultinject.IngestCorrupt); fires == 0 || len(byShard[0]) == 0 || len(byShard[1]) == 0 {
		t.Fatalf("degenerate contract: %d injected faults, alerts per shard %d/%d", fires, len(byShard[0]), len(byShard[1]))
	}
}

// contractFrame encodes events as one wire frame, with the 4097th and
// the 8000th event records replaced by undecodable ones.
func contractFrame(t *testing.T, events []raslog.Event) []byte {
	t.Helper()
	sc := raslog.NewWireScanner(bytes.NewReader(encodeWire(t, events)))
	f, err := sc.Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Next(); err != io.EOF {
		t.Fatalf("%d events do not fit one frame (second Next: %v)", len(events), err)
	}
	var payload []byte
	k := 0
	if err := f.Records(func(tag byte, raw, _ []byte) error {
		if tag == raslog.WireTagEvent {
			k++
			switch k {
			case wireBatchCap + 1:
				raw = []byte{raslog.WireTagEvent, 1, 0xEE}
			case 8000:
				raw = []byte{raslog.WireTagEvent, 2, 0, 0}
			}
		}
		payload = append(payload, raw...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return append(raslog.AppendWireFrameHeader(nil, f.BaseSec, f.BaseRecID, len(payload)), payload...)
}
