// Package lifecycle keeps a running bglserved's learned state durable
// and fresh: it checkpoints the serving state into the audit ledger so
// a crashed or restarted daemon resumes within seconds instead of
// retraining, and it retrains the model in the background over a sliding window of
// recently ingested events, hot-swapping the result into the live
// shards.
//
// Three cooperating pieces:
//
//   - Recorder: a bounded sliding window of the shard engines' Phase 1
//     output (unique events), the retrainer's training data.
//   - Checkpointer: periodically appends a snapshot of every shard
//     engine's mutable state (dedup tables, observation windows,
//     standing alarms, counters) to the audit ledger, tagged with the
//     hash of the model artifact it was taken against.
//   - Retrainer: re-mines rules and re-learns temporal correlations
//     over the recorder's window, persists the result as a versioned
//     model artifact (internal/model), and swaps it into all serving
//     shards between two records (serve.Server.SwapModel) — zero
//     dropped ingests, no lost or duplicated alerts.
package lifecycle

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"bglpred/internal/model"
	"bglpred/internal/online"
)

// Checkpoint envelope identity; the envelope machinery is shared with
// model artifacts.
const (
	CheckpointMagic   = "BGLC"
	CheckpointVersion = 1
)

// ModelFile is the active model artifact inside a checkpoint
// directory.
const ModelFile = "model.bglm"

// ModelPath names the active model artifact in a checkpoint directory.
func ModelPath(dir string) string { return filepath.Join(dir, ModelFile) }

// Checkpoints are gob, and gob numbers types in the order a process
// first encodes them and writes those numbers into every payload, so a
// checkpoint's bytes would depend on what the process encoded before
// it. Checkpoint is numbered here, before main runs, as the first type
// every process encodes; model artifacts are not gob and need no such
// care.
func init() {
	if err := gob.NewEncoder(io.Discard).Encode(Checkpoint{}); err != nil {
		panic(err)
	}
}

// Checkpoint is one persisted snapshot of a server's mutable serving
// state. The model itself is not inside (it lives in its own artifact
// file); ModelSHA256 records which model the state was built over, so
// a restore against the wrong model is detected instead of silently
// producing nonsense predictions.
type Checkpoint struct {
	// SavedAt is when the snapshot was taken.
	SavedAt time.Time
	// ModelSHA256 and ModelVersion identify the serving model at save
	// time (empty SHA for an in-memory model that was never persisted).
	ModelSHA256  string
	ModelVersion int64
	// Shards holds one engine state per shard, indexed by shard ID.
	Shards []online.State
}

// encodeCheckpoint frames cp's gob encoding in the checkpoint envelope.
func encodeCheckpoint(cp *Checkpoint) ([]byte, model.Info, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(cp); err != nil {
		return nil, model.Info{}, fmt.Errorf("lifecycle: encode checkpoint: %w", err)
	}
	return model.MarshalEnvelope(CheckpointMagic, CheckpointVersion, payload.Bytes())
}

// DecodeCheckpoint verifies a checkpoint envelope and decodes it.
func DecodeCheckpoint(data []byte) (*Checkpoint, model.Info, error) {
	payload, info, err := model.UnmarshalEnvelope(data, CheckpointMagic, CheckpointVersion)
	if err != nil {
		return nil, model.Info{}, err
	}
	cp := new(Checkpoint)
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(cp); err != nil {
		return nil, model.Info{}, fmt.Errorf("model: decode %s payload: %w", CheckpointMagic, err)
	}
	return cp, info, nil
}
