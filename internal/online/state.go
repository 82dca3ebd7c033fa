package online

import (
	"fmt"
	"slices"
	"time"

	"bglpred/internal/predictor"
	"bglpred/internal/preprocess"
	"bglpred/internal/raslog"
)

// This file is the engine's checkpoint/restore and hot-swap seam.
// internal/lifecycle persists State values inside crash-safe
// checkpoints so a restarted daemon resumes mid-stream, and swaps a
// retrained meta-learner into a live engine without losing the
// observation window or the standing alarm.

// State is the complete mutable state of an Engine as plain,
// serializable data: the Phase 1 compressor's windows (LastGC,
// Temporal, Spatial — preprocess.CompressorState, flattened under the
// gob field names checkpoints have always used), the activity
// counters, the engine clock, the Stepper's observation window and
// standing alarm, and the RecIDs taken at LastSeen, which a restored
// engine refuses again. The trained model itself is NOT part of the
// state — it is persisted separately as a model artifact
// (internal/model), and a checkpoint records which artifact it was
// taken against.
type State struct {
	LastSeen time.Time
	LastGC   time.Time
	Counters Counters
	Temporal []preprocess.TemporalEntry
	Spatial  []preprocess.SpatialEntry
	Stepper  predictor.StepperState
	Taken    []int64
}

// State exports a consistent snapshot of the engine's mutable state.
// Equal engines export equal bytes: the compressor sorts its windows.
func (e *Engine) State() State {
	e.mu.Lock()
	defer e.mu.Unlock()
	cs := e.comp.State()
	return State{
		LastSeen: e.lastSeen,
		LastGC:   cs.LastGC,
		Counters: e.counters,
		Temporal: cs.Temporal,
		Spatial:  cs.Spatial,
		Stepper:  e.stepper.State(),
		Taken:    slices.Clone(e.taken),
	}
}

// Restore replaces the engine's mutable state with a previously
// exported one, so a fresh engine over an equivalent trained model
// continues the stream exactly where the exported engine stopped —
// same dedup decisions, same standing alarm, same counters. It refuses
// a state with a time raslog.TimeInRange does not admit; LastSeen and
// LastGC may also be zero, as an engine that never ingested exports.
func (e *Engine) Restore(st State) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.counters.Ingested != 0 {
		return fmt.Errorf("online: cannot restore state into an engine that has already ingested %d records", e.counters.Ingested)
	}
	ok := (st.LastSeen.IsZero() || raslog.TimeInRange(st.LastSeen)) && (st.LastGC.IsZero() || raslog.TimeInRange(st.LastGC))
	for i := range st.Temporal {
		ok = ok && raslog.TimeInRange(st.Temporal[i].Last)
	}
	for i := range st.Spatial {
		ok = ok && raslog.TimeInRange(st.Spatial[i].Last)
	}
	if !ok {
		return fmt.Errorf("online: cannot restore state with a time outside 1970–2262")
	}
	e.lastSeen, e.taken = st.LastSeen, append(e.taken[:0], st.Taken...)
	e.counters = st.Counters
	e.comp.Restore(preprocess.CompressorState{
		LastGC: st.LastGC,
		// Every Unique verdict bumps Counters.Unique, so it is also the
		// compressor's next slot.
		Next:     int(st.Counters.Unique),
		Temporal: st.Temporal,
		Spatial:  st.Spatial,
	})
	e.stepper.Restore(st.Stepper)
	return nil
}

// SwapModel atomically replaces the engine's trained meta-learner with
// a new one. The Stepper's mutable state — the observation window of
// recent non-fatal events and the standing alarm — is transplanted
// onto a fresh Stepper over the new model, so no evidence is dropped
// and no duplicate alarm is raised across the swap: ingestion before
// and after the swap behaves as one continuous stream. Safe to call
// concurrently with Ingest; the swap happens between two records.
func (e *Engine) SwapModel(meta *predictor.Meta) {
	e.mu.Lock()
	defer e.mu.Unlock()
	next := meta.Stepper(e.cfg.Window)
	next.Restore(e.stepper.State())
	e.stepper = next
}
