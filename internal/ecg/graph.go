// Package ecg implements an event-correlation-graph base predictor in
// the style of LogMaster (arXiv:1003.0951): Phase 1 unique events are
// graph nodes (keyed by interned subcategory ID), and a directed edge
// a -> b counts how often an occurrence of a is followed by an
// occurrence of b within a sliding correlation window, together with
// inter-arrival timing statistics. Training derives, per non-fatal
// node, the most probable edge chain leading to a fatal node; at
// prediction time the observed precursors' chain probabilities
// combine into a failure warning.
//
// The predictor registers itself in the base-predictor registry under
// the name "ecg", so the meta-learner (predictor.Meta) can arbitrate
// it alongside the paper's statistical and rule methods.
package ecg

import (
	"fmt"
	"time"

	"bglpred/internal/catalog"
	"bglpred/internal/preprocess"
)

// Node is one event signature in the correlation graph.
type Node struct {
	// ID is the interned subcategory ID (catalog.ByID resolves it).
	ID int
	// Count is the node's occurrence count in the training stream.
	Count int
	// Fatal reports whether the subcategory is a failure.
	Fatal bool
}

// Edge is one directed correlation a -> b: among Count occurrences of
// node From, how often node To followed within the correlation
// window, and with what inter-arrival gaps.
type Edge struct {
	From, To int
	// Count is the number of From occurrences followed by a To within
	// the window (each From occurrence counts a given successor once).
	Count int
	// Probability is Count over the From node's occurrence count.
	Probability float64
	// GapSum, MinGap and MaxGap aggregate the gap to the first To
	// after each counted From occurrence; MeanGap derives the average.
	GapSum time.Duration
	MinGap time.Duration
	MaxGap time.Duration
}

// MeanGap is the average gap to the first successor occurrence.
func (e Edge) MeanGap() time.Duration {
	if e.Count == 0 {
		return 0
	}
	return e.GapSum / time.Duration(e.Count)
}

type edgeStat struct {
	count  int
	gapSum time.Duration
	minGap time.Duration
	maxGap time.Duration
}

// numIDs bounds node IDs: subcategory IDs are dense in
// [0, catalog.NumSubcategories), so the graph is a matrix, not a map,
// and it reads out in (From, To) order without sorting.
const numIDs = catalog.NumSubcategories

// Graph is the mined event-correlation graph. Mine with AddSegment
// (per training segment, so no correlation window spans a
// cross-validation seam); State serializes it, Restore rebuilds it.
type Graph struct {
	window    time.Duration
	nodes     [numIDs]int // occurrence count per node ID; 0 = absent
	edges     [numIDs][numIDs]edgeStat
	nodeCount int
	edgeCount int
}

// NewGraph returns an empty graph with the given correlation window.
func NewGraph(window time.Duration) *Graph {
	return &Graph{window: window}
}

// Window reports the correlation window the graph was mined with.
func (g *Graph) Window() time.Duration { return g.window }

// AddSegment mines one contiguous, time-ordered segment of the
// unique-event stream's Points into the graph. For each occurrence of
// an event a, every distinct event signature first seen within the
// correlation window after a contributes one count (and its
// first-occurrence gap) to the edge a -> that signature. Calling
// AddSegment per segment keeps correlation windows from spanning
// segment gaps. The scan compares and subtracts the points' Unix
// nanoseconds.
func (g *Graph) AddSegment(pts []preprocess.Point) {
	// seen[to] == i+1 once occurrence i has counted successor to.
	var seen [numIDs]int
	for i, a := range pts {
		from := a.Sub
		if g.nodes[from] == 0 {
			g.nodeCount++
		}
		g.nodes[from]++
		row := &g.edges[from]
		for j := i + 1; j < len(pts) && pts[j].At-a.At <= int64(g.window); j++ {
			to := pts[j].Sub
			if to == from || seen[to] == i+1 {
				continue
			}
			seen[to] = i + 1
			gap := time.Duration(pts[j].At - a.At)
			st := &row[to]
			if st.count == 0 {
				g.edgeCount++
				st.minGap, st.maxGap = gap, gap
			} else {
				st.minGap = min(st.minGap, gap)
				st.maxGap = max(st.maxGap, gap)
			}
			st.count++
			st.gapSum += gap
		}
	}
}

// NodeCount and EdgeCount size the graph.
func (g *Graph) NodeCount() int { return g.nodeCount }
func (g *Graph) EdgeCount() int { return g.edgeCount }

// probability is edge from -> to's count over from's occurrences.
func (g *Graph) probability(from, to int) float64 {
	return float64(g.edges[from][to].count) / float64(g.nodes[from])
}

// addNode and addEdge restore one node or edge, nodes first. They
// refuse what the matrix cannot hold or what training never produces:
// an ID outside the taxonomy, a duplicate node or edge, a non-positive
// count, an edge whose endpoints are not nodes, or an edge counted more
// often than its From node occurred (a probability above 1).
func (g *Graph) addNode(id, count int) error {
	switch {
	case id < 0 || id >= numIDs:
		return fmt.Errorf("ecg: node ID %d outside the taxonomy [0, %d)", id, numIDs)
	case count <= 0:
		return fmt.Errorf("ecg: node %d has count %d", id, count)
	case g.nodes[id] != 0:
		return fmt.Errorf("ecg: duplicate node %d", id)
	}
	g.nodes[id] = count
	g.nodeCount++
	return nil
}

func (g *Graph) addEdge(from, to int, st edgeStat) error {
	switch {
	case from < 0 || from >= numIDs || to < 0 || to >= numIDs:
		return fmt.Errorf("ecg: edge %d->%d outside the taxonomy [0, %d)", from, to, numIDs)
	case st.count <= 0:
		return fmt.Errorf("ecg: edge %d->%d has count %d", from, to, st.count)
	case g.nodes[from] == 0 || g.nodes[to] == 0:
		return fmt.Errorf("ecg: edge %d->%d joins a node the graph does not hold", from, to)
	case st.count > g.nodes[from]:
		return fmt.Errorf("ecg: edge %d->%d counts %d of node %d's %d occurrences", from, to, st.count, from, g.nodes[from])
	case g.edges[from][to].count != 0:
		return fmt.Errorf("ecg: duplicate edge %d->%d", from, to)
	}
	g.edges[from][to] = st
	g.edgeCount++
	return nil
}

func isFatalID(id int) bool {
	s, ok := catalog.ByID(id)
	return ok && s.IsFatal()
}

func nodeName(id int) string {
	if s, ok := catalog.ByID(id); ok {
		return s.Name
	}
	return "item?"
}
