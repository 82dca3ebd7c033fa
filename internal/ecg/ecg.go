package ecg

import (
	"fmt"
	"time"

	"bglpred/internal/canon"
	"bglpred/internal/predictor"
	"bglpred/internal/preprocess"
)

// Source is the predictor's registry name and Warning.Source value.
const Source = "ecg"

// Config parameterizes the event-correlation-graph predictor. The
// zero value selects the defaults below.
type Config struct {
	// Window is the sliding correlation window edges are mined within.
	// Default 15 minutes (the scale of the paper's rule-generation
	// windows).
	Window time.Duration
	// MinCount is the minimum edge count for an edge to qualify for
	// failure paths (guards against spurious one-off correlations).
	// Default 5.
	MinCount int
	// MinProbability is the minimum edge probability for an edge to
	// qualify. Default 0.25.
	MinProbability float64
	// MaxDepth bounds failure-path length in hops. Default 3.
	MaxDepth int
	// MinConfidence is the minimum combined chain probability for a
	// warning to be raised. Default 0.2 (the rule method's floor).
	MinConfidence float64
}

func (c Config) withDefaults() Config {
	if c.Window == 0 {
		c.Window = 15 * time.Minute
	}
	if c.MinCount == 0 {
		c.MinCount = 5
	}
	if c.MinProbability == 0 {
		c.MinProbability = 0.25
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 3
	}
	if c.MinConfidence == 0 {
		c.MinConfidence = 0.2
	}
	return c
}

// Path is the most probable edge chain from a node to a fatal node:
// the product of qualified-edge probabilities along the chain.
type Path struct {
	// Target is the fatal subcategory the chain reaches.
	Target int
	// Probability is the chain's probability product.
	Probability float64
	// Hops is the chain length (1 = a direct edge into Target).
	Hops int
}

// Predictor is the event-correlation-graph base predictor. It
// implements predictor.Base: train it offline (per cross-validation
// segment), step it online through the meta-learner's Stepper, or
// persist it as an artifact section.
type Predictor struct {
	Config Config

	graph *Graph
	paths map[int]Path
}

// New returns an untrained predictor.
func New(cfg Config) *Predictor { return &Predictor{Config: cfg} }

// Name implements predictor.Base.
func (p *Predictor) Name() string { return Source }

// Kind implements predictor.Base: the graph predicts from non-fatal
// precursor evidence.
func (p *Predictor) Kind() predictor.Kind { return predictor.KindPrecursor }

// Graph exposes the mined correlation graph (nil before Train).
func (p *Predictor) Graph() *Graph { return p.graph }

// Path reports the failure path learned for a subcategory ID, if any.
func (p *Predictor) Path(sub int) (Path, bool) {
	pt, ok := p.paths[sub]
	return pt, ok
}

// Train implements predictor.Base.
func (p *Predictor) Train(events []preprocess.Event) error {
	return p.TrainSegments([][]preprocess.Point{preprocess.Points(events)})
}

// TrainSegments implements predictor.SegmentedTrainer: the graph is
// mined per segment, so no correlation window spans the gap between
// two segments (cross-validation excises the test fold from the
// middle of the stream; mining over the concatenation would fabricate
// correlations that never happened).
func (p *Predictor) TrainSegments(segments [][]preprocess.Point) error {
	p.Config = p.Config.withDefaults()
	g := NewGraph(p.Config.Window)
	for _, seg := range segments {
		g.AddSegment(seg)
	}
	p.graph = g
	p.paths = buildPaths(g, p.Config)
	return nil
}

// buildPaths computes, for every non-fatal node, the most probable
// qualified-edge chain into a fatal node, by iterating a
// Bellman-Ford-style relaxation MaxDepth times over ascending node IDs
// (deterministic: same graph, same paths, bit for bit).
func buildPaths(g *Graph, cfg Config) map[int]Path {
	type arc struct {
		to   int
		prob float64
	}
	var adj [numIDs][]arc
	ids := make([]int, 0, g.nodeCount)
	for id, n := range g.nodes {
		if n == 0 {
			continue
		}
		ids = append(ids, id)
		if isFatalID(id) {
			continue // chains start and relay through non-fatal nodes
		}
		for to := range g.edges[id] {
			count := g.edges[id][to].count
			if count == 0 || count < cfg.MinCount {
				continue
			}
			if prob := g.probability(id, to); prob >= cfg.MinProbability {
				adj[id] = append(adj[id], arc{to: to, prob: prob})
			}
		}
	}

	paths := make(map[int]Path)
	// Depth 1: direct qualified edges into fatal nodes.
	for _, id := range ids {
		for _, a := range adj[id] {
			if !isFatalID(a.to) {
				continue
			}
			if better(Path{Target: a.to, Probability: a.prob, Hops: 1}, paths[id]) {
				paths[id] = Path{Target: a.to, Probability: a.prob, Hops: 1}
			}
		}
	}
	// Depth d: relay through a non-fatal neighbour's best path so far
	// (fatal nodes never hold a path entry, so chains relay only
	// through non-fatal intermediates). No edge probability exceeds 1,
	// so a best chain never repeats a node, and relaxing past the node
	// count changes nothing: that bound keeps a restored MaxDepth from
	// spinning.
	for depth := 2; depth <= min(cfg.MaxDepth, g.nodeCount); depth++ {
		prev := paths
		next := make(map[int]Path, len(prev))
		for _, id := range ids {
			if pt, ok := prev[id]; ok {
				next[id] = pt
			}
			for _, a := range adj[id] {
				via, ok := prev[a.to]
				if !ok {
					continue
				}
				cand := Path{Target: via.Target, Probability: a.prob * via.Probability, Hops: via.Hops + 1}
				if cand.Hops <= cfg.MaxDepth && better(cand, next[id]) {
					next[id] = cand
				}
			}
		}
		paths = next
	}
	return paths
}

// better orders candidate paths: higher probability wins, then fewer
// hops, then the smaller target ID (a total order, so relaxation is
// iteration-order independent).
func better(a, b Path) bool {
	if b.Probability == 0 {
		return a.Probability > 0
	}
	if a.Probability != b.Probability {
		return a.Probability > b.Probability
	}
	if a.Hops != b.Hops {
		return a.Hops < b.Hops
	}
	return a.Target < b.Target
}

// Observe implements predictor.Base. Every observed precursor with a
// learned failure path contributes its chain probability; the
// combined confidence is their noisy-OR, and the specificity is the
// number of contributing precursors. Observe is read-only: one
// trained predictor serves every shard's Stepper concurrently.
func (p *Predictor) Observe(e *preprocess.Event, recent []predictor.StepObservation, window time.Duration) (predictor.Candidate, bool) {
	if e.Sub.IsFatal() || len(p.paths) == 0 {
		return predictor.Candidate{}, false
	}
	miss := 1.0
	matched := 0
	var best Path
	bestSub := -1
	for i, o := range recent {
		if seenBefore(recent, i) {
			continue
		}
		pt, ok := p.paths[o.Sub]
		if !ok {
			continue
		}
		matched++
		miss *= 1 - pt.Probability
		if better(pt, best) {
			best, bestSub = pt, o.Sub
		}
	}
	if matched == 0 {
		return predictor.Candidate{}, false
	}
	conf := 1 - miss
	if conf < p.Config.MinConfidence {
		return predictor.Candidate{}, false
	}
	return predictor.Candidate{
		Warning: predictor.Warning{
			At:         e.Time,
			Start:      e.Time,
			End:        e.Time.Add(window),
			Confidence: conf,
			Source:     Source,
			Detail: fmt.Sprintf("correlation graph: %d precursor(s), best %s -(%d hop)-> %s p=%.3f",
				matched, nodeName(bestSub), best.Hops, nodeName(best.Target), best.Probability),
		},
		Specificity: matched,
	}, true
}

// seenBefore reports whether recent[i].Sub already occurred earlier
// in recent (precursor dedup without allocating on the hot path).
func seenBefore(recent []predictor.StepObservation, i int) bool {
	for j := 0; j < i; j++ {
		if recent[j].Sub == recent[i].Sub {
			return true
		}
	}
	return false
}

// Predict implements predictor.Base by replaying the stream through a
// meta-learner over this one base: the deployed Stepper's sliding
// window and standing-alarm renewal.
func (p *Predictor) Predict(events []preprocess.Event, window time.Duration) []predictor.Warning {
	if len(p.paths) == 0 {
		return nil
	}
	return predictor.NewMetaBases(p).Predict(events, window)
}

// stateVersion is the first field of State's encoding.
const stateVersion = 1

// State implements predictor.Base: it serializes the trained graph
// for an artifact section, in a canonical encoding (internal/canon) of
// exactly what SetState reads: the configuration, the nodes' (ID,
// count) and the edges' (from, to, count, gap sum, min gap, max gap),
// each in ID order. Edge probabilities and node fatality are derived,
// so they are recomputed on restore rather than stored.
func (p *Predictor) State() ([]byte, error) {
	if p.graph == nil {
		return nil, fmt.Errorf("ecg: predictor is not trained")
	}
	return encodeState(p.Config, p.graph), nil
}

// encodeState is the encoding State describes.
func encodeState(c Config, g *Graph) []byte {
	b := canon.AppendUint(make([]byte, 0, 64+4*g.nodeCount+32*g.edgeCount), stateVersion)
	b = canon.AppendInt(b, int64(c.Window))
	b = canon.AppendInt(b, int64(c.MinCount))
	b = canon.AppendFloat(b, c.MinProbability)
	b = canon.AppendInt(b, int64(c.MaxDepth))
	b = canon.AppendFloat(b, c.MinConfidence)
	b = canon.AppendUint(b, uint64(g.nodeCount))
	for id, n := range g.nodes {
		if n > 0 {
			b = canon.AppendInt(canon.AppendInt(b, int64(id)), int64(n))
		}
	}
	b = canon.AppendUint(b, uint64(g.edgeCount))
	for from := range g.edges {
		if g.nodes[from] == 0 {
			continue
		}
		for to := range g.edges[from] {
			st := &g.edges[from][to]
			if st.count == 0 {
				continue
			}
			b = canon.AppendInt(canon.AppendInt(b, int64(from)), int64(to))
			b = canon.AppendInt(b, int64(st.count))
			b = canon.AppendInt(b, int64(st.gapSum))
			b = canon.AppendInt(b, int64(st.minGap))
			b = canon.AppendInt(b, int64(st.maxGap))
		}
	}
	return b
}

// SetState implements predictor.Base: it rebuilds the graph and
// recomputes the failure paths (a deterministic function of the
// graph, so the restored predictor predicts identically).
func (p *Predictor) SetState(data []byte) error {
	r := canon.NewReader(data)
	r.Version("ecg state", stateVersion)
	var c Config
	c.Window = time.Duration(r.Int())
	c.MinCount = int(r.Int())
	c.MinProbability = r.Float()
	c.MaxDepth = int(r.Int())
	c.MinConfidence = r.Float()
	c = c.withDefaults()
	g := NewGraph(c.Window)
	for n := r.Count(2); n > 0 && r.Err() == nil; n-- {
		id, count := int(r.Int()), int(r.Int())
		if r.Err() == nil {
			r.Fail(g.addNode(id, count))
		}
	}
	for n := r.Count(6); n > 0 && r.Err() == nil; n-- {
		from, to := int(r.Int()), int(r.Int())
		st := edgeStat{count: int(r.Int()), gapSum: time.Duration(r.Int()), minGap: time.Duration(r.Int()), maxGap: time.Duration(r.Int())}
		if r.Err() == nil {
			r.Fail(g.addEdge(from, to, st))
		}
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("ecg: decode state: %w", err)
	}
	p.Config = c
	p.graph = g
	p.paths = buildPaths(g, c)
	return nil
}

// Restore builds a trained predictor from a configuration and a mined
// graph's nodes and edges (their Probability and Fatal fields are
// derived, so ignored). It refuses what SetState refuses.
func Restore(cfg Config, nodes []Node, edges []Edge) (*Predictor, error) {
	cfg = cfg.withDefaults()
	g := NewGraph(cfg.Window)
	for _, n := range nodes {
		if err := g.addNode(n.ID, n.Count); err != nil {
			return nil, err
		}
	}
	for _, e := range edges {
		if err := g.addEdge(e.From, e.To, edgeStat{count: e.Count, gapSum: e.GapSum, minGap: e.MinGap, maxGap: e.MaxGap}); err != nil {
			return nil, err
		}
	}
	return &Predictor{Config: cfg, graph: g, paths: buildPaths(g, cfg)}, nil
}

func init() {
	predictor.Register(Source, func() predictor.Base { return New(Config{}) })
}
