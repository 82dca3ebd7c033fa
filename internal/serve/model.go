package serve

import (
	"fmt"
	"net/http"
	"time"

	"bglpred/internal/edge"
	"bglpred/internal/online"
	"bglpred/internal/predictor"
)

// ModelInfo identifies the trained model a server is currently serving
// with. It is the RCU-published half of a hot-swap: readers
// (/v1/model, /metrics, /healthz) load the pointer without touching
// the engines.
type ModelInfo struct {
	// Version counts model generations in this process: 1 is the model
	// the server started with, and every hot-swap increments it.
	Version int64 `json:"version"`
	// SHA256 is the hex payload hash of the model artifact, when the
	// model came from (or was saved to) one; empty for a model trained
	// in memory and never persisted.
	SHA256 string `json:"sha256,omitempty"`
	// TrainedAt is when training finished.
	TrainedAt time.Time `json:"trained_at,omitempty"`
	// LoadedAt is when this server started serving with the model.
	LoadedAt time.Time `json:"loaded_at"`
	// Source describes the training data.
	Source string `json:"source,omitempty"`
	// Rules is the rule base's mined rule count, a quick sanity signal;
	// 0 when the model has no rule base. New and SwapModel derive it
	// from the meta-learner, as they do Predictors.
	Rules int `json:"rules"`
	// Predictors names the base predictors the model's meta-learner
	// arbitrates over, in arbitration order (by name).
	Predictors []string `json:"predictors,omitempty"`
}

// RuleCount is a meta-learner's mined rule count: 0 when it has no
// rule base.
func RuleCount(meta *predictor.Meta) int {
	if meta.Rule == nil || meta.Rule.Rules() == nil {
		return 0
	}
	return meta.Rule.Rules().Len()
}

// publishModel fills info's derived fields from meta — Rules,
// Predictors, and LoadedAt when unset — and publishes it as the
// serving model's identity.
func (s *Server) publishModel(meta *predictor.Meta, info ModelInfo, loadedAt time.Time) ModelInfo {
	if info.LoadedAt.IsZero() {
		info.LoadedAt = loadedAt
	}
	info.Rules = RuleCount(meta)
	info.Predictors = meta.BaseNames()
	s.model.Store(&info)
	return info
}

// ModelResponse is the body of a GET /v1/model reply.
type ModelResponse struct {
	ModelInfo
	// AgeSeconds is time since LoadedAt.
	AgeSeconds float64 `json:"age_seconds"`
	// Swaps counts completed hot-swaps since startup.
	Swaps int64 `json:"swaps"`
}

// Model returns the currently served model's identity.
func (s *Server) Model() ModelInfo { return *s.model.Load() }

// Swaps returns the number of completed model hot-swaps.
func (s *Server) Swaps() int64 { return s.swaps.Load() }

// SwapModel hot-swaps a new trained meta-learner into every shard and
// publishes its identity. Each engine transplants its observation
// window and standing alarm onto the new model between two records, so
// concurrent ingestion loses nothing and no duplicate alarms are
// raised; the swap is complete when SwapModel returns. info.Version is
// assigned by the server (previous version + 1), and Rules and
// Predictors are derived from meta.
func (s *Server) SwapModel(meta *predictor.Meta, info ModelInfo) ModelInfo {
	// Publish the meta before touching engines, so a shard rebuilding
	// its engine after a panic never resurrects the outgoing model.
	s.meta.Store(meta)
	for _, sh := range s.shards {
		sh.engine().SwapModel(meta)
	}
	info.Version = s.model.Load().Version + 1
	info = s.publishModel(meta, info, time.Now())
	s.swaps.Add(1)
	return info
}

// ExportShards snapshots every shard engine's mutable state, indexed
// by shard ID — the serving half of a checkpoint. Each shard's state
// is internally consistent; with concurrent ingestion, shards may be
// captured at slightly different stream positions, which is sound
// because shards process disjoint substreams.
func (s *Server) ExportShards() []online.State {
	out := make([]online.State, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.engine().State()
	}
	return out
}

// RestoreShards installs previously exported shard states, shard by
// shard. It must run before the server has ingested anything (i.e. at
// daemon startup), and the shard count must match the checkpoint's.
func (s *Server) RestoreShards(states []online.State) error {
	if len(states) != len(s.shards) {
		return fmt.Errorf("serve: checkpoint holds %d shard states, server runs %d shards (restart with -shards matching the checkpoint, or discard it)",
			len(states), len(s.shards))
	}
	for i, sh := range s.shards {
		if err := sh.engine().Restore(states[i]); err != nil {
			return err
		}
		// The restored state is also the shard's first known-good
		// snapshot: a panic before the first periodic snapshot must fall
		// back to the checkpoint, not to a cold engine.
		st := states[i]
		sh.lastGood.Store(&st)
	}
	return nil
}

// handleModel serves GET /v1/model (identity and age of the serving
// model) and dispatches POST /v1/model/reload via handleModelReload.
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	info := s.Model()
	edge.WriteJSON(w, http.StatusOK, ModelResponse{
		ModelInfo:  info,
		AgeSeconds: time.Since(info.LoadedAt).Seconds(),
		Swaps:      s.swaps.Load(),
	})
}

// handleModelReload serves POST /v1/model/reload: it invokes the
// configured reload hook (retrain-now, or re-read the artifact from
// disk — the daemon decides) and replies with the model that is
// serving afterwards.
func (s *Server) handleModelReload(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Reload == nil {
		http.Error(w, "no reload hook configured (start with -load-model or -retrain-interval)", http.StatusNotImplemented)
		return
	}
	if err := s.cfg.Reload(); err != nil {
		http.Error(w, "reload: "+err.Error(), http.StatusInternalServerError)
		return
	}
	info := s.Model()
	edge.WriteJSON(w, http.StatusOK, ModelResponse{
		ModelInfo:  info,
		AgeSeconds: time.Since(info.LoadedAt).Seconds(),
		Swaps:      s.swaps.Load(),
	})
}
