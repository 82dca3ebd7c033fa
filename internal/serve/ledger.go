package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"hash"
	"io"
	"net/http"
	"strconv"
	"time"

	"bglpred/internal/edge"
	"bglpred/internal/ledger"
)

// ingestDigest accumulates the SHA-256 and byte count of one ingest
// request body as it streams through the decoder.
type ingestDigest struct {
	h hash.Hash
	n int64
}

func (d *ingestDigest) Write(p []byte) (int, error) {
	d.h.Write(p)
	d.n += int64(len(p))
	return len(p), nil
}

// teeIngestBody interposes the audit digest on the request body; with
// no ledger configured it is a pass-through.
func (s *Server) teeIngestBody(body io.Reader) (io.Reader, *ingestDigest) {
	if s.cfg.Ledger == nil {
		return body, nil
	}
	d := &ingestDigest{h: sha256.New()}
	return io.TeeReader(body, d), d
}

// ingestLedgerRecord is the KindIngest payload: enough to re-derive
// whether a batch an operator holds is the batch the server accepted.
type ingestLedgerRecord struct {
	SHA256      string `json:"sha256"`
	Bytes       int64  `json:"bytes"`
	Accepted    int64  `json:"accepted"`
	Quarantined int64  `json:"quarantined,omitempty"`
}

// appendIngestRecord group-commits the accepted batch's digest. It
// runs on the request goroutine after the batches have run: the reply is
// held until the audit record is durable, so an acknowledged batch is
// always an auditable batch. An append failure degrades to a counter
// (the ingest itself already succeeded).
func (s *Server) appendIngestRecord(d *ingestDigest, resp *IngestResponse) {
	if s.cfg.Ledger == nil || d == nil || resp.Accepted == 0 {
		return
	}
	start := time.Now()
	defer func() { s.ledgerTime.Observe(time.Since(start)) }()
	payload, err := json.Marshal(ingestLedgerRecord{
		SHA256:      hex.EncodeToString(d.h.Sum(nil)),
		Bytes:       d.n,
		Accepted:    resp.Accepted,
		Quarantined: resp.Quarantined,
	})
	if err != nil {
		s.ledgerErrs.Add(1)
		return
	}
	if _, err := s.cfg.Ledger.Append(ledger.KindIngest, payload); err != nil {
		s.ledgerErrs.Add(1)
		return
	}
	s.ledgerAppends.Add(1)
}

// appendAlertRecord records one emitted alert. It runs under the shard
// lock, outside the engine lock; alert rates are low enough that
// the group commit's fsync is the only cost, shared with any
// concurrent ingest digests.
func (s *Server) appendAlertRecord(a Alert) {
	if s.cfg.Ledger == nil {
		return
	}
	payload, err := json.Marshal(a)
	if err != nil {
		s.ledgerErrs.Add(1)
		return
	}
	if _, err := s.cfg.Ledger.Append(ledger.KindAlert, payload); err != nil {
		s.ledgerErrs.Add(1)
		return
	}
	s.ledgerAppends.Add(1)
}

// ProofsHead is the body of GET /v1/proofs with no seq parameter: the
// ledger's current head, the trusted root a client verifies proofs
// against.
type ProofsHead struct {
	Seq  uint64 `json:"seq"`
	Root string `json:"root"`
}

// handleProofs serves inclusion proofs from the audit ledger.
// GET /v1/proofs returns the head (sequence and chain root);
// GET /v1/proofs?seq=N returns entry N's proof, verifiable client-side
// with nothing but the proof body (fold leaf through siblings, compare
// root) plus a trusted root for its commit.
func (s *Server) handleProofs(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Ledger == nil {
		http.Error(w, "no audit ledger configured", http.StatusNotFound)
		return
	}
	q := r.URL.Query().Get("seq")
	if q == "" {
		seq, root := s.cfg.Ledger.Head()
		edge.WriteJSON(w, http.StatusOK, ProofsHead{Seq: seq, Root: root})
		return
	}
	seq, err := strconv.ParseUint(q, 10, 64)
	if err != nil {
		http.Error(w, "seq must be a non-negative integer", http.StatusBadRequest)
		return
	}
	p, err := s.cfg.Ledger.ProofOf(seq)
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, ledger.ErrNoEntry) {
			code = http.StatusNotFound
		}
		http.Error(w, err.Error(), code)
		return
	}
	edge.WriteJSON(w, http.StatusOK, p)
}
