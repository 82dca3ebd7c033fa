package model

import (
	"fmt"
	"time"

	"bglpred/internal/canon"
	"bglpred/internal/ledger"
	"bglpred/internal/predictor"
)

// ArtifactMagic and ArtifactVersion identify the model artifact
// format. Bump ArtifactVersion when the payload schema changes; Load
// keeps accepting every version up to the current one (the golden-file
// tests in artifact_test.go pin versions 1 and 2 forever). Version 3
// is the canonical encoding; versions 1 and 2 are gob and only decode.
const (
	ArtifactMagic   = "BGLM"
	ArtifactVersion = 3
)

// Provenance records where a model came from: the log it was trained
// on, its span and size, and the mining parameters — enough to audit a
// serving model ("which data, which thresholds?") and to reproduce the
// training run.
type Provenance struct {
	// TrainedAt is when training finished (wall clock). It is not part
	// of the payload, which is a function of the configuration and the
	// training window alone: FromMeta drops it and the encoding has no
	// field for it, so two identical trainings share one SHA-256. The
	// audit ledger's model record carries it; version-1 and version-2
	// artifacts that still hold it load with it.
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

// Encode frames the artifact's canonical payload in the envelope: the
// bytes Save writes, and their Info. The payload is provenance less
// TrainedAt (source, record counts, log span, mining parameters), the
// policy, then each section's name and State bytes.
func (a *Artifact) Encode() ([]byte, Info, error) {
	size := 128 + len(a.Provenance.Source) + len(a.Provenance.Params.Miner)
	for _, sec := range a.Sections {
		size += 16 + len(sec.Name) + len(sec.Data)
	}
	p, b := &a.Provenance, make([]byte, 0, size)
	b = canon.AppendString(b, p.Source)
	b = canon.AppendInt(b, int64(p.Records))
	b = canon.AppendInt(b, int64(p.Unique))
	b = appendTime(b, p.LogStart)
	b = appendTime(b, p.LogEnd)
	b = canon.AppendFloat(b, p.Params.MinSupport)
	b = canon.AppendFloat(b, p.Params.MinConfidence)
	b = canon.AppendInt(b, int64(p.Params.MaxBodyLen))
	b = canon.AppendInt(b, int64(p.Params.RuleGenWindow))
	b = canon.AppendString(b, p.Params.Miner)
	b = canon.AppendInt(b, int64(a.Policy))
	b = canon.AppendUint(b, uint64(len(a.Sections)))
	for _, sec := range a.Sections {
		b = canon.AppendBytes(canon.AppendString(b, sec.Name), sec.Data)
	}
	return MarshalEnvelope(ArtifactMagic, ArtifactVersion, b)
}

// decodePayload reads Encode's payload.
func decodePayload(payload []byte) (*Artifact, error) {
	r := canon.NewReader(payload)
	a := &Artifact{}
	p := &a.Provenance
	p.Source = r.String()
	p.Records = int(r.Int())
	p.Unique = int(r.Int())
	p.LogStart = readTime(r)
	p.LogEnd = readTime(r)
	p.Params.MinSupport = r.Float()
	p.Params.MinConfidence = r.Float()
	p.Params.MaxBodyLen = int(r.Int())
	p.Params.RuleGenWindow = time.Duration(r.Int())
	p.Params.Miner = r.String()
	a.Policy = int(r.Int())
	for n := r.Count(2); n > 0 && r.Err() == nil; n-- {
		a.Sections = append(a.Sections, Section{Name: r.String(), Data: r.Bytes()})
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("model: decode %s payload: %w", ArtifactMagic, err)
	}
	return a, nil
}

// appendTime writes a time as Unix seconds and nanoseconds; it reads
// back in UTC, the zero time included.
func appendTime(b []byte, t time.Time) []byte {
	return canon.AppendUint(canon.AppendInt(b, t.Unix()), uint64(t.Nanosecond()))
}

func readTime(r *canon.Reader) time.Time {
	sec, nsec := r.Int(), r.Uint()
	if nsec >= 1e9 {
		r.Fail(fmt.Errorf("model: %d nanoseconds past a second", nsec))
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

// Save writes the artifact to path in the versioned envelope format,
// atomically (ledger.WriteFileAtomic: temp file, fsync, rename,
// directory fsync). The returned Info carries the payload's SHA-256 —
// the artifact's identity.
func (a *Artifact) Save(path string) (Info, error) {
	framed, info, err := a.Encode()
	if err != nil {
		return Info{}, err
	}
	if err := ledger.WriteFileAtomic(ledger.OS, path, framed, true); err != nil {
		return Info{}, err
	}
	info.Path = path
	return info, nil
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
// anything shipping artifacts over a wire instead of a file). A
// version-1 or version-2 artifact decodes with its sections converted
// to their canonical State bytes, so a decoded artifact has one form
// whatever its version; Info still names the bytes as stored.
func Decode(data []byte) (*Artifact, Info, error) {
	payload, info, err := UnmarshalEnvelope(data, ArtifactMagic, ArtifactVersion)
	if err != nil {
		return nil, Info{}, err
	}
	var a *Artifact
	if info.Version < 3 {
		a, err = decodeLegacy(payload)
	} else {
		a, err = decodePayload(payload)
	}
	if err != nil {
		return nil, Info{}, err
	}
	return a, info, nil
}

// Verify checks a model artifact's framing and integrity without
// decoding it.
func Verify(path string) (Info, error) {
	return VerifyEnvelope(path, ArtifactMagic, ArtifactVersion)
}
