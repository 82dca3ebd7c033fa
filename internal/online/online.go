// Package online is the deployable form of the three-phase predictor
// (paper §3.3: "it is practical to deploy the meta-learner as an
// online prediction engine"). An Engine ingests raw RAS records one
// at a time, classifies them, runs them through the same Phase 1
// compression kernel the training pipeline uses (preprocess.Compressor)
// and drives a trained meta-learner incrementally, surfacing alarm
// transitions as they happen.
package online

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"bglpred/internal/catalog"
	"bglpred/internal/predictor"
	"bglpred/internal/preprocess"
	"bglpred/internal/raslog"
)

// Config parameterizes the engine. The zero value uses the paper's
// 300 s compression thresholds and a 30-minute prediction window.
type Config struct {
	// Window is the prediction window alarms cover.
	Window time.Duration
	// Preprocess is the Phase 1 configuration; hand the engine the
	// value its model was trained with so both compress alike. Workers
	// is ignored.
	Preprocess preprocess.Options
	// OnAlert, when set, is invoked synchronously for every new alarm
	// (not for renewals). It runs outside the engine's state lock, so
	// it may call back into the engine (Counters, ActiveAlert); with
	// concurrent ingesters it may be invoked from multiple goroutines,
	// though never concurrently with itself.
	OnAlert func(predictor.Warning)
	// OnRecord, when set, sees each record the engine accepts, under
	// e.mu: it must not block or call back into the engine.
	OnRecord RecordFunc
}

// RecordFunc takes an accepted record (valid only for the call), its
// subcategory (nil when unclassified), and Phase 1's verdict and slot.
type RecordFunc func(ev *raslog.Event, sub *catalog.Subcategory, v preprocess.Verdict, slot int)

// Counters tracks engine activity.
type Counters struct {
	Ingested     int64 // raw records seen
	Unique       int64 // records surviving streaming compression
	Unclassified int64 // records matching no subcategory
	Alerts       int64 // new alarms raised
	Renewals     int64 // standing-alarm renewals
	Duplicate    int64 // records refused as repeats of one already taken
}

// Ingestion reports what one record did.
type Ingestion struct {
	// Unique is true when the record survived compression and was fed
	// to the predictor.
	Unique bool
	// Sub is the categorization result (nil if unclassified).
	Sub *catalog.Subcategory
	// Alert is the alarm raised or renewed by this record, if any.
	Alert *predictor.Warning
	// Renewed distinguishes a renewal from a fresh alarm.
	Renewed bool
}

// Engine is a thread-safe streaming predictor. Records must be
// ingested in non-decreasing time order (the CMCS log order), each at a
// time raslog.TimeInRange admits; the engine refuses any other. A RecID
// (Table 2's record key) is a record's identity: a repeat of one taken
// at the newest time is refused, counted only as Duplicate.
type Engine struct {
	mu      sync.Mutex // guards all mutable state below
	emitMu  sync.Mutex // serializes OnAlert calls
	cfg     Config
	clf     *catalog.Interner
	stepper *predictor.Stepper
	comp    *preprocess.Compressor

	lastSeen time.Time
	taken    []int64 // RecIDs taken at lastSeen, ascending; reused
	counters Counters
}

// New builds an engine over a trained meta-learner.
func New(meta *predictor.Meta, cfg Config) *Engine {
	if cfg.Window == 0 {
		cfg.Window = 30 * time.Minute
	}
	return &Engine{
		cfg:     cfg,
		clf:     catalog.NewInterner(0),
		stepper: meta.Stepper(cfg.Window),
		comp:    preprocess.NewCompressor(cfg.Preprocess),
	}
}

// Ingest processes one raw record.
func (e *Engine) Ingest(ev *raslog.Event) (Ingestion, error) {
	e.mu.Lock()
	out, err := e.ingestLocked(ev)
	e.mu.Unlock()
	if err != nil || out.Alert == nil || out.Renewed {
		return out, err
	}
	e.emit([]predictor.Warning{*out.Alert})
	return out, nil
}

// IngestBatch processes a batch of records under a single state-lock
// acquisition — the hot path for wire-frame ingest, where per-record
// locking would dominate the decode cost. Per-record semantics match
// Ingest exactly: a record refused for its time is counted and skipped
// (the rest of the batch proceeds), and each new alarm is emitted in
// order after the state lock is released.
//
//bglvet:hotpath
func (e *Engine) IngestBatch(evs []raslog.Event) (rejected int64) {
	if len(evs) == 0 {
		return 0
	}
	var pend []predictor.Warning
	e.mu.Lock()
	for i := range evs {
		out, err := e.ingestLocked(&evs[i])
		if err != nil {
			rejected++
			continue
		}
		if out.Alert != nil && !out.Renewed {
			pend = append(pend, *out.Alert)
		}
	}
	e.mu.Unlock()
	e.emit(pend)
	return rejected
}

// emit delivers new alarms to OnAlert, in order. It runs after the
// state lock is released so OnAlert may reenter the engine; emitMu
// keeps the callback stream serialized even under concurrent
// ingesters.
func (e *Engine) emit(alarms []predictor.Warning) {
	if len(alarms) == 0 || e.cfg.OnAlert == nil {
		return
	}
	e.emitMu.Lock()
	defer e.emitMu.Unlock()
	for _, w := range alarms {
		e.cfg.OnAlert(w)
	}
}

// ingestLocked is the state transition; e.mu must be held.
func (e *Engine) ingestLocked(ev *raslog.Event) (Ingestion, error) {
	if ev.Time.Before(e.lastSeen) || !raslog.TimeInRange(ev.Time) {
		//bglvet:ignore hotpathalloc rejection detail is built only for refused records, which quarantine off the fast path
		return Ingestion{}, fmt.Errorf("online: record %d at %v refused: the engine requires log order from %v, within 1970–2262",
			ev.RecID, ev.Time, e.lastSeen)
	}
	switch n := len(e.taken); {
	case !ev.Time.Equal(e.lastSeen): // time advanced: forget the RecIDs taken
		e.lastSeen, e.taken = ev.Time, append(e.taken[:0], ev.RecID)
	case n == 0 || ev.RecID > e.taken[n-1]: // RecIDs rising: no search
		e.taken = append(e.taken, ev.RecID)
	case !e.insertTaken(ev.RecID):
		e.counters.Duplicate++
		return Ingestion{}, nil
	}
	e.counters.Ingested++

	sub, ok := e.clf.Classify(ev)
	v, slot := preprocess.Unique, -1
	if ok {
		v, slot = e.comp.Step(ev, sub.ID)
	}
	if e.cfg.OnRecord != nil {
		e.cfg.OnRecord(ev, sub, v, slot)
	}
	if !ok {
		e.counters.Unclassified++
		return Ingestion{}, nil
	}
	out := Ingestion{Sub: sub}
	if v != preprocess.Unique {
		return out, nil
	}
	out.Unique = true
	e.counters.Unique++

	ue := preprocess.Event{Event: *ev, Sub: sub, Count: 1, Locations: 1}
	w, res := e.stepper.Step(&ue)
	switch res {
	case predictor.StepNew:
		e.counters.Alerts++
		out.Alert = &w
	case predictor.StepRenewed:
		e.counters.Renewals++
		out.Alert = &w
		out.Renewed = true
	}
	return out, nil
}

// insertTaken adds a RecID arriving below the newest one taken at
// lastSeen, reporting false when it was taken already.
func (e *Engine) insertTaken(id int64) bool {
	i, found := slices.BinarySearch(e.taken, id)
	if !found {
		e.taken = slices.Insert(e.taken, i, id)
	}
	return !found
}

// ActiveAlert returns the alarm standing at time t, if any.
func (e *Engine) ActiveAlert(t time.Time) (predictor.Warning, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stepper.Standing(t)
}

// Counters returns a snapshot of engine activity.
func (e *Engine) Counters() Counters {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.counters
}

// Snapshot is a consistent point-in-time view of engine state, for
// observability surfaces (the /metrics and /v1/alerts endpoints of
// internal/serve read one per shard).
type Snapshot struct {
	Counters
	// LastSeen is the timestamp of the newest record ingested (zero if
	// none yet) — the engine's notion of "now".
	LastSeen time.Time
	// PendingKeys is the number of live Phase 1 compression windows
	// (temporal + spatial keys), a memory gauge.
	PendingKeys int
	// Standing is the alarm in force at LastSeen, nil if none — the
	// same state a checkpoint persists, so observability surfaces
	// (/healthz, /v1/alerts) and checkpoints agree on whether the
	// engine is carrying an active prediction.
	Standing *predictor.Warning
}

// Snapshot returns a consistent snapshot of counters and engine time.
func (e *Engine) Snapshot() Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	snap := Snapshot{
		Counters:    e.counters,
		LastSeen:    e.lastSeen,
		PendingKeys: e.comp.Pending(),
	}
	if w, ok := e.stepper.Standing(e.lastSeen); ok {
		snap.Standing = &w
	}
	return snap
}
