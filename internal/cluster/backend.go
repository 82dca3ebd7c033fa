package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"bglpred/internal/edge"
)

// BackendState is the gate's view of one backend's routability.
type BackendState int

const (
	// StateUp routes normally.
	StateUp BackendState = iota
	// StateDegraded routes normally; the backend self-reports degraded
	// (a recent load-shed) and readers may prefer its peers.
	StateDegraded
	// StateDown is unroutable: probes or forwards fail. Its hash
	// ranges' lines park in the replay buffer until recovery.
	StateDown
	// StateSkewed is reachable but serves a model SHA that disagrees
	// with the cluster's agreed version; the gate refuses to route to
	// it (outside a rolling swap) so one stale node cannot emit alerts
	// from a different model than its peers.
	StateSkewed
	// StateTampered is reachable but its audit-ledger report
	// contradicts its own history — the sequence regressed, or the root
	// changed under an unchanged sequence. Either its ledger was
	// truncated/rewritten or the backend was replaced wholesale; the
	// gate refuses to route to it until an operator runs bglaudit and
	// clears the node.
	StateTampered
)

var stateNames = map[BackendState]string{
	StateUp:       "up",
	StateDegraded: "degraded",
	StateDown:     "down",
	StateSkewed:   "skewed",
	StateTampered: "tampered",
}

// String returns the state's wire name (as served on /v1/cluster/status).
func (s BackendState) String() string {
	if n, ok := stateNames[s]; ok {
		return n
	}
	return "unknown"
}

// routable reports whether ingest may be forwarded in this state.
func (s BackendState) routable() bool { return s == StateUp || s == StateDegraded }

// probeInfo is what one combined /healthz probe learns about a
// backend (the serve layer includes the model SHA in the health body
// precisely so this is a single request).
type probeInfo struct {
	Status       string `json:"status"`
	Degraded     bool   `json:"degraded"`
	Shards       int    `json:"shards"`
	ModelSHA     string `json:"model_sha"`
	ModelVersion int64  `json:"model_version"`
	// LedgerRoot/LedgerSeq are the backend's audit-ledger head; empty
	// when the backend runs without a ledger. The gate checks each
	// probe against the backend's own previous report (see
	// checkLedgerLocked) — roots legitimately differ across backends,
	// so tampering is self-inconsistency over time, not disagreement
	// with peers.
	LedgerRoot string `json:"ledger_root"`
	LedgerSeq  uint64 `json:"ledger_seq"`
}

// backend is the gate's per-member state: health, last probe result,
// the replay backlog, and the counters behind the bglgate_* families.
type backend struct {
	url string

	// mu guards the mutable view below. It is never held across a
	// network call: delivery decisions are made under it, the HTTP
	// round-trip happens outside it.
	mu        sync.Mutex
	state     BackendState
	lastErr   string
	lastProbe time.Time
	info      probeInfo
	replay    replayBuffer
	draining  bool // a replay drain owns the buffer's head

	// ledgerSeq/ledgerRoot are the last accepted ledger head, the
	// baseline each new probe must be consistent with. Not updated on a
	// violation: the tampered evidence stays pinned for the operator.
	ledgerSeq  uint64
	ledgerRoot string

	routed      atomic.Int64 // lines delivered on the direct path
	replayed    atomic.Int64 // lines delivered from the replay buffer
	rerouted    atomic.Int64 // lines diverted into the replay buffer
	forwardErrs atomic.Int64 // failed ingest forwards
	probeFails  atomic.Int64 // failed health probes
	partials    atomic.Int64 // 200 responses with unreadable bodies

	forwardTime *edge.Histogram // per forward, acknowledgment read included
}

// checkLedgerLocked validates a fresh probe's ledger head against the
// backend's own previous report and advances the baseline when it is
// consistent; b.mu held. It reports false — tamper evidence — when the
// sequence regressed or the root changed without the sequence moving:
// an append-only ledger can only grow, and its root under a fixed
// sequence is immutable. A backend that never reports a ledger (empty
// root) is never flagged; a sequence that advances is accepted on its
// word (the gate holds no inclusion proofs — offline verification is
// bglaudit's job).
func (b *backend) checkLedgerLocked(info probeInfo) bool {
	if info.LedgerRoot == "" {
		return true
	}
	if b.ledgerRoot != "" {
		if info.LedgerSeq < b.ledgerSeq {
			return false
		}
		if info.LedgerSeq == b.ledgerSeq && info.LedgerRoot != b.ledgerRoot {
			return false
		}
	}
	b.ledgerSeq, b.ledgerRoot = info.LedgerSeq, info.LedgerRoot
	return true
}

// markDownLocked records a delivery or probe failure; b.mu held.
func (b *backend) markDownLocked(err error) {
	b.state = StateDown
	if err != nil {
		b.lastErr = err.Error()
	}
}

// snapshotLocked copies the mutable view for /v1/cluster/status;
// b.mu held.
func (b *backend) snapshotLocked() BackendStatus {
	return BackendStatus{
		URL:            b.url,
		State:          b.state.String(),
		ModelSHA:       b.info.ModelSHA,
		ModelVersion:   b.info.ModelVersion,
		LedgerRoot:     b.ledgerRoot,
		LedgerSeq:      b.ledgerSeq,
		Shards:         b.info.Shards,
		ReplayBuffered: b.replay.len(),
		ReplayDropped:  b.replay.dropped,
		Routed:         b.routed.Load(),
		Replayed:       b.replayed.Load(),
		Rerouted:       b.rerouted.Load(),
		LastError:      b.lastErr,
		LastProbe:      b.lastProbe,
	}
}

// BackendStatus is one backend's row in GET /v1/cluster/status.
type BackendStatus struct {
	URL   string `json:"url"`
	State string `json:"state"`
	// ModelSHA/ModelVersion/Shards mirror the backend's last successful
	// health probe.
	ModelSHA     string `json:"model_sha,omitempty"`
	ModelVersion int64  `json:"model_version,omitempty"`
	Shards       int    `json:"shards,omitempty"`
	// LedgerRoot/LedgerSeq are the backend's last accepted audit-ledger
	// head (empty when it runs without a ledger). A "tampered" State
	// means a later probe contradicted them.
	LedgerRoot string `json:"ledger_root,omitempty"`
	LedgerSeq  uint64 `json:"ledger_seq,omitempty"`
	// ReplayBuffered is the gate-side backlog of lines owed to this
	// backend; ReplayDropped counts lines the bounded buffer lost.
	ReplayBuffered int   `json:"replay_buffered"`
	ReplayDropped  int64 `json:"replay_dropped,omitempty"`
	// Routed/Replayed/Rerouted are lifetime line counters (direct
	// deliveries, replay deliveries, diversions into the buffer).
	Routed    int64     `json:"routed"`
	Replayed  int64     `json:"replayed"`
	Rerouted  int64     `json:"rerouted"`
	LastError string    `json:"last_error,omitempty"`
	LastProbe time.Time `json:"last_probe,omitempty"`
}

// StatusResponse is the body of GET /v1/cluster/status.
type StatusResponse struct {
	// AgreedSHA is the model version the cluster has converged on —
	// the majority SHA among reachable backends (lexically smallest on
	// a tie). Backends disagreeing with it are marked skewed and not
	// routed to.
	AgreedSHA string `json:"agreed_sha,omitempty"`
	// Swapping is true while a rolling POST /v1/model/reload walks the
	// backends (version enforcement is suspended for its duration).
	Swapping bool `json:"swapping"`
	// VNodes is the ring's virtual-node count per backend.
	VNodes        int             `json:"vnodes"`
	Backends      []BackendStatus `json:"backends"`
	UptimeSeconds float64         `json:"uptime_seconds"`
}
