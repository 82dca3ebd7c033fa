package serve

import (
	"net/http"
	"time"

	"bglpred/internal/edge"
)

// rawSnippet bounds how much of an offending line the quarantine
// keeps: enough to diagnose, too little to let a hostile payload bloat
// the ring.
const rawSnippet = 256

// QuarantinedRecord is one malformed (or fault-injected-corrupt)
// ingest line parked for inspection instead of failing its batch.
type QuarantinedRecord struct {
	// Seq is the lifetime quarantine sequence number (monotonic).
	Seq int64 `json:"seq"`
	// At is when the record was quarantined.
	At time.Time `json:"at"`
	// Line is the 1-based line number within the request body that
	// carried the record (0 when the record decoded but was rejected
	// later, e.g. by an injected corruption fault).
	Line int64 `json:"line,omitempty"`
	// Raw is the offending text, truncated to a diagnostic snippet.
	Raw string `json:"raw"`
	// Cause is why the record could not be accepted.
	Cause string `json:"cause"`
}

// QuarantineResponse is the body of a GET /v1/quarantine reply.
type QuarantineResponse struct {
	// Total counts every record ever quarantined; the ring may have
	// evicted older entries.
	Total int64 `json:"total"`
	// Dropped counts entries evicted from the ring to make room —
	// records that were quarantined but can no longer be inspected
	// here. Nonzero means the ring is undersized for the error rate.
	Dropped int64 `json:"dropped,omitempty"`
	// Recent is the bounded ring of the newest entries, oldest first.
	Recent []QuarantinedRecord `json:"recent"`
}

// WithSeq implements edge.Sequenced: the ring assigns Seq.
func (q QuarantinedRecord) WithSeq(seq int64) QuarantinedRecord { q.Seq = seq; return q }

// Quarantine is the bounded ring of records an ingest path could not
// accept, and the GET /v1/quarantine handler over it: the recent
// records and the lifetime counts, for debugging upstream producers
// without scraping server logs. The cluster gate keeps one of its own,
// so operators read one schema cluster-wide.
type Quarantine struct {
	ring *edge.Ring[QuarantinedRecord]
}

// NewQuarantine returns a quarantine holding the newest capacity records.
func NewQuarantine(capacity int) *Quarantine {
	return &Quarantine{ring: edge.NewRing[QuarantinedRecord](capacity)}
}

// Add parks one record: the 1-based body line it came from (0 when
// unknown), the offending text, and why it was refused.
func (q *Quarantine) Add(line int64, raw string, cause error) {
	if len(raw) > rawSnippet {
		raw = raw[:rawSnippet]
	}
	q.ring.Add(QuarantinedRecord{At: time.Now(), Line: line, Raw: raw, Cause: cause.Error()})
}

// Counts returns how many records were ever quarantined and how many
// of those the ring has since evicted.
func (q *Quarantine) Counts() (total, dropped int64) { return q.ring.Counts() }

// ServeHTTP serves GET /v1/quarantine.
func (q *Quarantine) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var resp QuarantineResponse
	resp.Recent, resp.Total, resp.Dropped = q.ring.Snapshot()
	edge.WriteJSON(w, http.StatusOK, resp)
}
