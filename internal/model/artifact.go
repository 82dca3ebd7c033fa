package model

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"time"

	"bglpred/internal/ledger"
	"bglpred/internal/predictor"
)

// ArtifactMagic and ArtifactVersion identify the model artifact
// format. Bump ArtifactVersion when the payload schema changes; Load
// keeps accepting every version up to the current one (the golden-file
// test in artifact_test.go pins version 1 forever).
const (
	ArtifactMagic   = "BGLM"
	ArtifactVersion = 2
)

// Provenance records where a model came from: the log it was trained
// on, its span and size, and the mining parameters — enough to audit a
// serving model ("which data, which thresholds?") and to reproduce the
// training run.
type Provenance struct {
	// TrainedAt is when training finished (wall clock). It is not part
	// of the payload, which is a function of the configuration and the
	// training window alone: FromMeta drops it, so two identical
	// trainings share one SHA-256. The audit ledger's model record
	// carries it; artifacts written before it left still load with it.
	TrainedAt time.Time
	// Source describes the training data (file path or generator spec).
	Source string
	// Records is the raw record count; Unique the count surviving
	// Phase 1 compression.
	Records int
	Unique  int
	// LogStart and LogEnd span the training log's event times.
	LogStart time.Time
	LogEnd   time.Time
	// Params are the mining parameters in force.
	Params MiningParams
}

// MiningParams are the training knobs that shaped the rule set.
type MiningParams struct {
	MinSupport    float64
	MinConfidence float64
	MaxBodyLen    int
	RuleGenWindow time.Duration
	Miner         string
}

// ParamsOf reads the mining parameters a trained meta-learner's rule
// base ran under; they are all zero when the meta has no rule base.
func ParamsOf(m *predictor.Meta) MiningParams {
	if m.Rule == nil {
		return MiningParams{}
	}
	cfg := m.Rule.Config
	return MiningParams{
		MinSupport:    cfg.MinSupport,
		MinConfidence: cfg.MinConfidence,
		MaxBodyLen:    cfg.MaxBodyLen,
		RuleGenWindow: m.Rule.ChosenWindow(),
		Miner:         fmt.Sprintf("%T", cfg.Miner),
	}
}

// Section is one named per-predictor payload: Name is the base
// predictor's registry name and Data is its predictor.Base State
// payload. Meta rebuilds each section through the registry, so an
// artifact can carry any registered base set, not just the classic
// pair.
type Section struct {
	Name string
	Data []byte
}

// Artifact is a complete trained predictor as plain serializable data:
// everything needed to reconstruct a predictor.Meta that behaves
// identically to the one that was saved.
type Artifact struct {
	Provenance Provenance
	// Policy is the meta-learner arbitration policy (predictor.Policy).
	Policy int
	// Stat and Rule are the version-1 payload, the classic pair's
	// tables in their bases' State payload types. They exist only to
	// decode version-1 files: Load and Decode convert them into Sections
	// and clear them, and FromMeta never fills them.
	Stat predictor.StatState
	Rule predictor.RuleState
	// Sections carries every base predictor's serialized state in
	// meta-learner arbitration order.
	Sections []Section
}

// FromMeta captures a trained meta-learner as an artifact, with prov
// less its TrainedAt. The returned artifact shares no mutable state
// with the predictor: each section is a freshly encoded State payload,
// so later retraining cannot corrupt a saved model.
func FromMeta(m *predictor.Meta, prov Provenance) (*Artifact, error) {
	if m == nil || len(m.Bases()) == 0 {
		return nil, fmt.Errorf("model: meta-learner is not trained (no base predictors)")
	}
	prov.TrainedAt = time.Time{}
	a := &Artifact{Provenance: prov, Policy: int(m.Policy)}
	for _, b := range m.Bases() {
		data, err := b.State()
		if err != nil {
			return nil, fmt.Errorf("model: %s predictor: %w", b.Name(), err)
		}
		a.Sections = append(a.Sections, Section{Name: b.Name(), Data: data})
	}
	return a, nil
}

// Meta reconstructs a trained meta-learner from the artifact, each
// section through the base-predictor registry. The result predicts
// identically to the meta-learner FromMeta captured (the round-trip
// test in artifact_test.go asserts this event for event).
func (a *Artifact) Meta() (*predictor.Meta, error) {
	if len(a.Sections) == 0 {
		return nil, fmt.Errorf("model: artifact carries no predictor sections")
	}
	bases := make([]predictor.Base, 0, len(a.Sections))
	for _, sec := range a.Sections {
		b, err := predictor.NewBase(sec.Name)
		if err != nil {
			return nil, fmt.Errorf("model: artifact section %q: %w", sec.Name, err)
		}
		if err := b.SetState(sec.Data); err != nil {
			return nil, fmt.Errorf("model: restore %s predictor: %w", sec.Name, err)
		}
		bases = append(bases, b)
	}
	m := predictor.NewMetaBases(bases...)
	m.Policy = predictor.Policy(a.Policy)
	return m, nil
}

// convertV1 turns a version-1 payload (the classic pair's tables, no
// sections) into the statistical and rule sections, then clears the
// tables, so a decoded artifact has one payload whatever its version.
func (a *Artifact) convertV1() error {
	if len(a.Sections) == 0 {
		for _, t := range []struct {
			name  string
			table any
		}{{predictor.SourceStatistical, a.Stat}, {predictor.SourceRule, a.Rule}} {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(t.table); err != nil {
				return fmt.Errorf("model: convert version-1 %s table: %w", t.name, err)
			}
			a.Sections = append(a.Sections, Section{Name: t.name, Data: buf.Bytes()})
		}
	}
	a.Stat, a.Rule = predictor.StatState{}, predictor.RuleState{}
	return nil
}

// Save writes the artifact to path in the versioned envelope format,
// atomically. The returned Info carries the payload's SHA-256 — the
// artifact's identity.
func (a *Artifact) Save(path string) (Info, error) {
	return SaveEnvelopeFS(ledger.OS, path, ArtifactMagic, ArtifactVersion, a)
}

// Load reads and verifies a model artifact. It accepts any format
// version up to ArtifactVersion; corrupted or truncated files return
// an error, never a panic.
func Load(path string) (*Artifact, Info, error) {
	data, err := ledger.OS.ReadFile(path)
	if err != nil {
		return nil, Info{}, err
	}
	a, info, err := Decode(data)
	if err != nil {
		return nil, Info{}, err
	}
	info.Path = path
	return a, info, nil
}

// Decode is Load over in-memory bytes (used by the fuzz harness and
// anything shipping artifacts over a wire instead of a file).
func Decode(data []byte) (*Artifact, Info, error) {
	var a Artifact
	info, err := UnmarshalEnvelope(data, ArtifactMagic, ArtifactVersion, &a)
	if err == nil {
		err = a.convertV1()
	}
	if err != nil {
		return nil, Info{}, err
	}
	return &a, info, nil
}

// Verify checks a model artifact's framing and integrity without
// decoding it.
func Verify(path string) (Info, error) {
	return VerifyEnvelope(path, ArtifactMagic, ArtifactVersion)
}
