package model

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"time"

	"bglpred/internal/assoc"
	"bglpred/internal/catalog"
	"bglpred/internal/ecg"
	"bglpred/internal/predictor"
	"bglpred/internal/stats"
)

// This file reads the gob-encoded artifacts of format versions 1 and 2
// and nothing else: it only decodes. Each base section converts to its
// base's canonical State bytes as it loads, so the rest of the package
// sees one form. Gob matches struct fields by name, so the mirror types
// below read what the exported types of those builds wrote.

// legacyArtifact is the version-1 and version-2 payload. A version-1
// payload carries only the classic pair's tables; a version-2 payload
// carries sections, and may carry the tables beside them as a mirror.
type legacyArtifact struct {
	Provenance Provenance
	Policy     int
	Stat       legacyStat
	Rule       legacyRule
	Sections   []Section
}

// legacyStat is the statistical base's gob section and version-1
// table. Version 2 wrote its counts packed in category order
// (TotalTable, FollowedTable, TriggerTable); older payloads, the
// version-1 table among them, wrote maps.
type legacyStat struct {
	MinLead, MaxWindow          time.Duration
	MinProbability              float64
	MinCount                    int
	FollowMinLead, FollowWindow time.Duration
	TotalTable, FollowedTable   []byte
	TriggerTable                []byte
	Total, Followed             map[int]int
	Triggers                    map[int]float64
}

// legacyRule is the rule base's gob section and version-1 table.
type legacyRule struct {
	Window time.Duration
	Rules  []assoc.Rule
}

// legacyGraph is the ecg base's gob section.
type legacyGraph struct {
	Config ecg.Config
	Nodes  []ecg.Node
	Edges  []ecg.Edge
}

// decodeLegacy reads a version-1 or version-2 payload into an artifact
// whose sections are canonical.
func decodeLegacy(payload []byte) (*Artifact, error) {
	var la legacyArtifact
	if err := gobDecode(payload, &la); err != nil {
		return nil, fmt.Errorf("model: decode %s payload: %w", ArtifactMagic, err)
	}
	a := &Artifact{Provenance: la.Provenance, Policy: la.Policy}
	if len(la.Sections) == 0 {
		// Version 1: the classic pair's tables are the model.
		stat, err := la.Stat.base()
		if err != nil {
			return nil, fmt.Errorf("model: version-1 statistical table: %w", err)
		}
		for _, b := range []predictor.Base{stat, la.Rule.base()} {
			if err := a.addSection(b); err != nil {
				return nil, err
			}
		}
		return a, nil
	}
	for _, sec := range la.Sections {
		b, err := legacyBase(sec)
		if err != nil {
			return nil, fmt.Errorf("model: restore %s predictor: %w", sec.Name, err)
		}
		if err := a.addSection(b); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// addSection appends b's canonical State as a section.
func (a *Artifact) addSection(b predictor.Base) error {
	data, err := b.State()
	if err != nil {
		return fmt.Errorf("model: %s predictor: %w", b.Name(), err)
	}
	a.Sections = append(a.Sections, Section{Name: b.Name(), Data: data})
	return nil
}

// legacyBase rebuilds the base one gob section describes. Versions 1
// and 2 were written while exactly these three bases existed.
func legacyBase(sec Section) (predictor.Base, error) {
	switch sec.Name {
	case predictor.SourceStatistical:
		var st legacyStat
		if err := gobDecode(sec.Data, &st); err != nil {
			return nil, err
		}
		return st.base()
	case predictor.SourceRule:
		var st legacyRule
		if err := gobDecode(sec.Data, &st); err != nil {
			return nil, err
		}
		return st.base(), nil
	case ecg.Source:
		var st legacyGraph
		if err := gobDecode(sec.Data, &st); err != nil {
			return nil, err
		}
		return ecg.Restore(st.Config, st.Nodes, st.Edges)
	}
	return nil, fmt.Errorf("no version-2 decoder for a section named %q", sec.Name)
}

func gobDecode(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

func (st legacyStat) base() (*predictor.Statistical, error) {
	follow := &stats.FollowStats{
		MinLead:  st.FollowMinLead,
		Window:   st.FollowWindow,
		Total:    st.Total,
		Followed: st.Followed,
	}
	if follow.Total == nil {
		follow.Total = make(map[int]int)
	}
	if follow.Followed == nil {
		follow.Followed = make(map[int]int)
	}
	triggers := make(map[catalog.Main]float64, len(st.Triggers))
	for main, conf := range st.Triggers {
		triggers[catalog.Main(main)] = conf
	}
	if err := unpackCounts(st.TotalTable, follow.Total); err != nil {
		return nil, err
	}
	if err := unpackCounts(st.FollowedTable, follow.Followed); err != nil {
		return nil, err
	}
	if err := unpackConfs(st.TriggerTable, triggers); err != nil {
		return nil, err
	}
	s := &predictor.Statistical{
		MinLead:        st.MinLead,
		MaxWindow:      st.MaxWindow,
		MinProbability: st.MinProbability,
		MinCount:       st.MinCount,
	}
	s.SetTrained(follow, triggers)
	return s, nil
}

func (st legacyRule) base() *predictor.Rule {
	r := predictor.NewRule()
	r.SetTrained(assoc.NewRuleSet(st.Rules), st.Window)
	return r
}

var errStatTable = errors.New("malformed version-2 statistical table")

// unpackCounts adds version 2's packed (varint category, varint
// count) pairs to m.
func unpackCounts(b []byte, m map[int]int) error {
	for len(b) > 0 {
		main, n := binary.Varint(b)
		if n <= 0 {
			return errStatTable
		}
		count, k := binary.Varint(b[n:])
		if k <= 0 {
			return errStatTable
		}
		m[int(main)] = int(count)
		b = b[n+k:]
	}
	return nil
}

// unpackConfs adds version 2's packed (varint category, big-endian
// float64 bits) pairs to m.
func unpackConfs(b []byte, m map[catalog.Main]float64) error {
	for len(b) > 0 {
		main, n := binary.Varint(b)
		if n <= 0 || len(b) < n+8 {
			return errStatTable
		}
		m[catalog.Main(main)] = math.Float64frombits(binary.BigEndian.Uint64(b[n:]))
		b = b[n+8:]
	}
	return nil
}
