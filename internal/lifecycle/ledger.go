package lifecycle

import (
	"cmp"
	"encoding/json"
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"bglpred/internal/ledger"
	"bglpred/internal/model"
	"bglpred/internal/serve"
)

// LedgerFile is the audit ledger inside a checkpoint directory.
const LedgerFile = "audit.bgll"

// LedgerPath names the audit ledger in a checkpoint directory.
func LedgerPath(dir string) string { return filepath.Join(dir, LedgerFile) }

// ModelLedgerRecord is the KindModel payload the retrainer appends
// after a model artifact lands: the provenance chain that lets
// bglaudit trace every model-v<N>.bglm back to genesis.
type ModelLedgerRecord struct {
	Version   int64     `json:"version"`
	SHA256    string    `json:"sha256"`
	Path      string    `json:"path"`
	TrainedAt time.Time `json:"trained_at"`
	Source    string    `json:"source"`
}

// LastModelRecord returns the newest model-provenance entry in the
// ledger, or ok=false when none has been appended yet.
func LastModelRecord(led *ledger.Ledger) (ModelLedgerRecord, bool, error) {
	seq, ok := led.LastSeqOf(ledger.KindModel)
	if !ok {
		return ModelLedgerRecord{}, false, nil
	}
	_, payload, err := led.Payload(seq)
	if err != nil {
		return ModelLedgerRecord{}, false, err
	}
	var rec ModelLedgerRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return ModelLedgerRecord{}, false, fmt.Errorf("lifecycle: model record at seq %d: %w", seq, err)
	}
	return rec, true, nil
}

// BootModel completes a booting server's model identity from the
// ledger's newest model record. The model that record names keeps its
// version and, when info has none, its training time; any other model
// is numbered one above it. Retrains then number their model-v<N>.bglm
// copies above every generation an earlier process recorded, so none
// is replaced. With no ledger or no record, info comes back unchanged.
func BootModel(led *ledger.Ledger, info serve.ModelInfo) (serve.ModelInfo, error) {
	if led == nil {
		return info, nil
	}
	rec, ok, err := LastModelRecord(led)
	if err != nil || !ok {
		return info, err
	}
	info.Version = rec.Version + 1
	if rec.SHA256 == info.SHA256 {
		info.Version = rec.Version
		if info.TrainedAt.IsZero() {
			info.TrainedAt = rec.TrainedAt
		}
	}
	return info, nil
}

// ModelTrainedAt is when the model whose artifact hashes to sha was
// trained, as the ledger's newest model record states it when that
// record names this model; artifacts carry no wall clock. It is the
// zero time otherwise, and with no ledger.
func ModelTrainedAt(led *ledger.Ledger, sha string) time.Time {
	if led == nil {
		return time.Time{}
	}
	rec, ok, err := LastModelRecord(led)
	if err != nil || !ok || rec.SHA256 != sha {
		return time.Time{}
	}
	return rec.TrainedAt
}

// LoadCheckpointFromLedger returns the newest checkpoint carried in
// the ledger (the group-commit Checkpointer's persistence path), or
// ok=false when the ledger holds none.
func LoadCheckpointFromLedger(led *ledger.Ledger) (*Checkpoint, model.Info, bool, error) {
	seq, ok := led.LastSeqOf(ledger.KindCheckpoint)
	if !ok {
		return nil, model.Info{}, false, nil
	}
	_, payload, err := led.Payload(seq)
	if err != nil {
		return nil, model.Info{}, false, fmt.Errorf("lifecycle: checkpoint entry %d: %w", seq, err)
	}
	cp, info, err := DecodeCheckpoint(payload)
	if err != nil {
		return nil, model.Info{}, false, fmt.Errorf("lifecycle: checkpoint entry %d: %w", seq, err)
	}
	info.Path = fmt.Sprintf("ledger:seq=%d", seq)
	return cp, info, true, nil
}

// MatchModelForCheckpoint finds the on-disk model artifact whose
// content hash is sha: the active ModelPath(dir) first, then the
// versioned model-v<N>.bglm copies, newest generation first. It
// returns the artifact's path, or an error when no intact artifact
// matches.
func MatchModelForCheckpoint(dir, sha string) (string, error) {
	type generation struct {
		path string
		n    int64
	}
	var versioned []generation
	paths, _ := filepath.Glob(filepath.Join(dir, "model-v*.bglm"))
	for _, path := range paths {
		num := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "model-v"), ".bglm")
		if n, err := strconv.ParseInt(num, 10, 64); err == nil {
			versioned = append(versioned, generation{path, n})
		}
	}
	slices.SortFunc(versioned, func(a, b generation) int { return cmp.Compare(b.n, a.n) })
	candidates := []string{ModelPath(dir)}
	for _, c := range versioned {
		candidates = append(candidates, c.path)
	}
	for _, path := range candidates {
		info, err := model.Verify(path)
		if err != nil {
			continue // missing or damaged artifact: keep looking
		}
		if info.SHA256 == sha {
			return path, nil
		}
	}
	return "", fmt.Errorf("lifecycle: no intact artifact in %s matches checkpoint model %.12s", dir, sha)
}

// Restore installs the newest checkpoint in the ledger into the
// server. wantSHA is the hash of the model the server was built with.
// A checkpoint taken against another model — the signature of a crash
// between a retrain's artifact rename and its next checkpoint — is
// never served over it: Restore hunts Dir for the artifact the
// checkpoint was actually taken against (the active model file or a
// versioned copy), swaps it in, and restores the matching pair. Only
// when no intact artifact matches does it cold-start, with a logged
// warning: serving mismatched state would mis-predict silently, which
// is strictly worse than re-learning. It returns (nil, nil) on a cold
// start.
func (c *Checkpointer) Restore(wantSHA string) (*Checkpoint, error) {
	if c.cfg.Ledger == nil {
		return nil, errNoLedger
	}
	cp, src, ok, err := LoadCheckpointFromLedger(c.cfg.Ledger)
	if err != nil || !ok {
		return nil, err
	}
	if cp.ModelSHA256 != wantSHA {
		path, err := MatchModelForCheckpoint(c.cfg.Dir, cp.ModelSHA256)
		if err != nil {
			c.logf("restore: checkpoint %s was taken against model %.12s, server has %.12s, and no matching artifact survives; cold start (%v)",
				src.Path, cp.ModelSHA256, wantSHA, err)
			return nil, nil
		}
		if err := c.swapTo(path); err != nil {
			return nil, err
		}
		c.logf("restore: checkpoint %s matches artifact %s (%.12s), not the boot model (%.12s); swapped to the matching pair",
			src.Path, path, cp.ModelSHA256, wantSHA)
	}
	if err := c.srv.RestoreShards(cp.Shards); err != nil {
		return nil, err
	}
	return cp, nil
}

// swapTo loads the artifact at path and hot-swaps it into the server.
func (c *Checkpointer) swapTo(path string) error {
	art, info, err := model.Load(path)
	if err != nil {
		return fmt.Errorf("lifecycle: load matching artifact %s: %w", path, err)
	}
	meta, err := art.Meta()
	if err != nil {
		return fmt.Errorf("lifecycle: matching artifact %s: %w", path, err)
	}
	trainedAt := art.Provenance.TrainedAt // set only in artifacts written before it left the payload
	if trainedAt.IsZero() {
		trainedAt = ModelTrainedAt(c.cfg.Ledger, info.SHA256)
	}
	c.srv.SwapModel(meta, serve.ModelInfo{
		SHA256:    info.SHA256,
		TrainedAt: trainedAt,
		Source:    art.Provenance.Source,
	})
	return nil
}
