package lifecycle

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
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
	var cp Checkpoint
	info, err := model.UnmarshalEnvelope(payload, CheckpointMagic, CheckpointVersion, &cp)
	if err != nil {
		return nil, model.Info{}, false, fmt.Errorf("lifecycle: checkpoint entry %d: %w", seq, err)
	}
	info.Path = fmt.Sprintf("ledger:seq=%d", seq)
	return &cp, info, true, nil
}

// MatchModelForCheckpoint finds the on-disk model artifact whose
// content hash is sha: the active ModelPath(dir) first, then the
// versioned model-v<N>.bglm copies (newest first). It returns the
// artifact's path, or an error when no intact artifact matches.
func MatchModelForCheckpoint(dir, sha string) (string, error) {
	candidates := []string{ModelPath(dir)}
	versioned, _ := filepath.Glob(filepath.Join(dir, "model-v*.bglm"))
	sort.Sort(sort.Reverse(sort.StringSlice(versioned)))
	candidates = append(candidates, versioned...)
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

// RestoreMatching installs the newest checkpoint into a freshly built
// server: from the ledger when one is carried there (led may be nil),
// else from StatePath(dir). wantSHA is the hash of the model the server
// was built with. A checkpoint taken against another model — the
// signature of a crash between the artifact rename and the next
// checkpoint — is never served over it: RestoreMatching hunts for the
// artifact the checkpoint was actually taken against (the active model
// file or a versioned copy), swaps it in, and restores the matching
// pair. Only when no intact artifact matches does it cold-start, with
// a logged warning: serving mismatched state would mis-predict
// silently, which is strictly worse than re-learning. It returns
// (nil, nil) on a cold start.
func RestoreMatching(srv *serve.Server, dir string, led *ledger.Ledger, wantSHA string, logf func(string, ...any)) (*Checkpoint, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var (
		cp  *Checkpoint
		src string
	)
	if led != nil {
		lcp, info, ok, err := LoadCheckpointFromLedger(led)
		if err != nil {
			return nil, err
		}
		if ok {
			cp, src = lcp, info.Path
		}
	}
	if cp == nil {
		path := StatePath(dir)
		fcp, _, err := LoadCheckpoint(ledger.OS, path)
		if os.IsNotExist(err) {
			return nil, nil // cold start
		}
		if err != nil {
			return nil, fmt.Errorf("lifecycle: load checkpoint %s: %w", path, err)
		}
		cp, src = fcp, path
	}

	if cp.ModelSHA256 == "" || wantSHA == "" || cp.ModelSHA256 == wantSHA {
		if err := srv.RestoreShards(cp.Shards); err != nil {
			return nil, err
		}
		return cp, nil
	}

	// The checkpoint was taken against a different model than the one
	// the server booted with — the signature of a crash between the
	// artifact write and the checkpoint write. Find the matching
	// artifact and restore the pair.
	path, err := MatchModelForCheckpoint(dir, cp.ModelSHA256)
	if err != nil {
		logf("restore: checkpoint %s was taken against model %.12s, server has %.12s, and no matching artifact survives; cold start (%v)",
			src, cp.ModelSHA256, wantSHA, err)
		return nil, nil
	}
	art, info, err := model.Load(path)
	if err != nil {
		return nil, fmt.Errorf("lifecycle: load matching artifact %s: %w", path, err)
	}
	meta, err := art.Meta()
	if err != nil {
		return nil, fmt.Errorf("lifecycle: matching artifact %s: %w", path, err)
	}
	logf("restore: checkpoint %s matches artifact %s (%.12s), not the boot model (%.12s); swapping to the matching pair",
		src, path, cp.ModelSHA256, wantSHA)
	trainedAt := art.Provenance.TrainedAt // set only in artifacts written before it left the payload
	if trainedAt.IsZero() {
		trainedAt = ModelTrainedAt(led, info.SHA256)
	}
	srv.SwapModel(meta, serve.ModelInfo{
		SHA256:    info.SHA256,
		TrainedAt: trainedAt,
		Source:    art.Provenance.Source,
	})
	if err := srv.RestoreShards(cp.Shards); err != nil {
		return nil, err
	}
	return cp, nil
}
