package ecg

import (
	"bytes"
	"reflect"
	"sort"
	"testing"
	"time"

	"bglpred/internal/catalog"
	"bglpred/internal/preprocess"
	"bglpred/internal/raslog"
)

// referenceGraph is the correlation graph as it was first written: a
// node map and an edge map, sorted on every read. It is the oracle
// the dense Graph must match record for record.
type referenceGraph struct {
	window time.Duration
	nodes  map[int]int
	edges  map[[2]int]*edgeStat
}

func newReferenceGraph(window time.Duration) *referenceGraph {
	return &referenceGraph{window: window, nodes: make(map[int]int), edges: make(map[[2]int]*edgeStat)}
}

func (g *referenceGraph) AddSegment(events []preprocess.Event) {
	var seen []int
	for i := range events {
		from := events[i].Sub.ID
		g.nodes[from]++
		horizon := events[i].Time.Add(g.window)
		seen = seen[:0]
		for j := i + 1; j < len(events) && !events[j].Time.After(horizon); j++ {
			to := events[j].Sub.ID
			if to == from || intsContain(seen, to) {
				continue
			}
			seen = append(seen, to)
			gap := events[j].Time.Sub(events[i].Time)
			st := g.edges[[2]int{from, to}]
			if st == nil {
				st = &edgeStat{minGap: gap, maxGap: gap}
				g.edges[[2]int{from, to}] = st
			} else {
				st.minGap = min(st.minGap, gap)
				st.maxGap = max(st.maxGap, gap)
			}
			st.count++
			st.gapSum += gap
		}
	}
}

func intsContain(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func (g *referenceGraph) Nodes() []Node {
	out := make([]Node, 0, len(g.nodes))
	for id, n := range g.nodes {
		out = append(out, Node{ID: id, Count: n, Fatal: isFatalID(id)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (g *referenceGraph) Edges() []Edge {
	out := make([]Edge, 0, len(g.edges))
	for k, st := range g.edges {
		out = append(out, Edge{
			From:        k[0],
			To:          k[1],
			Count:       st.count,
			Probability: float64(st.count) / float64(g.nodes[k[0]]),
			GapSum:      st.gapSum,
			MinGap:      st.minGap,
			MaxGap:      st.maxGap,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// fuzzSegments decodes bytes into a multi-segment unique-event
// stream starting at start: each byte pair is a gap and a subcategory
// ID, and a gap byte of 0xff closes the current segment. A gap byte's
// low five bits are minutes and its high three nanoseconds, so times
// meet a correlation window's edge both to the second and a
// nanosecond either side of it.
func fuzzSegments(start time.Time, data []byte) [][]preprocess.Event {
	var segs [][]preprocess.Event
	var cur []preprocess.Event
	at := start
	for i := 0; i+1 < len(data); i += 2 {
		if data[i] == 0xff {
			segs = append(segs, cur)
			cur = nil
			continue
		}
		at = at.Add(time.Duration(data[i]%32)*time.Minute + time.Duration(data[i]>>5))
		sub, _ := catalog.ByID(int(data[i+1]) % catalog.NumSubcategories)
		cur = append(cur, ue(at, sub.Name))
	}
	return append(segs, cur)
}

// FuzzGraphMatchesReference mines arbitrary multi-segment streams into
// both graphs: the dense Graph's nodes and edges must equal what the
// map-and-sort reference produces, and the predictor's State bytes
// those of the reference's nodes and edges put through the same
// encoder. The
// stream starts at Unix second sec, nanosecond nsec, and is skipped if
// it leaves the range event times take (raslog.TimeInRange); seeds put
// it at the epoch, where the range starts, and in its last hours,
// where a horizon added to an event's time would overflow.
func FuzzGraphMatchesReference(f *testing.F) {
	start := t0.Unix()
	f.Add(byte(15), start, uint32(0), []byte{})
	f.Add(byte(15), start, uint32(0), []byte{1, 3, 2, 7, 0, 3, 9, 40, 0xff, 0, 0, 3, 7, 1, 3})
	chain := chainTraining(4)
	var seed []byte
	for i, e := range chain {
		gap := byte(0)
		if i > 0 {
			gap = byte(e.Time.Sub(chain[i-1].Time) / time.Minute % 32)
		}
		seed = append(seed, gap, byte(e.Sub.ID))
	}
	f.Add(byte(15), start, uint32(0), seed)
	edge := []byte{0, 3, 15, 7, 0x20, 9, 0xef, 3, 0x2f, 7, 0xff, 1, 3, 0x40, 7}
	end := time.Date(2262, 4, 11, 23, 0, 0, 0, time.UTC).Unix()
	for _, sec := range []int64{0, end - 3*3600} {
		f.Add(byte(15), sec, uint32(999_999_999), edge)
		f.Add(byte(63), sec, uint32(0), seed)
	}
	f.Add(byte(63), end+40*60, uint32(0), []byte{0, 3, 1, 7, 2, 9, 0xff, 0, 3, 4, 7})
	f.Fuzz(func(t *testing.T, window byte, sec int64, nsec uint32, data []byte) {
		cfg := Config{Window: time.Duration(window%64+1) * time.Minute}
		segs := fuzzSegments(time.Unix(sec, int64(nsec%1e9)).UTC(), data)
		for _, seg := range segs {
			for i := range seg {
				if !raslog.TimeInRange(seg[i].Time) {
					t.Skip("the stream leaves the range event times take")
				}
			}
		}
		ref := newReferenceGraph(cfg.Window)
		for _, seg := range segs {
			ref.AddSegment(seg)
		}
		p := New(cfg)
		cols := make([][]preprocess.Point, len(segs))
		for i, seg := range segs {
			cols[i] = preprocess.Points(seg)
		}
		if err := p.TrainSegments(cols); err != nil {
			t.Fatal(err)
		}
		g := p.Graph()
		if g.NodeCount() != len(ref.nodes) || g.EdgeCount() != len(ref.edges) {
			t.Fatalf("graph sizes %d/%d, reference %d/%d", g.NodeCount(), g.EdgeCount(), len(ref.nodes), len(ref.edges))
		}
		if !reflect.DeepEqual(g.Nodes(), ref.Nodes()) {
			t.Fatalf("Nodes() = %v, reference %v", g.Nodes(), ref.Nodes())
		}
		if !reflect.DeepEqual(g.Edges(), ref.Edges()) {
			t.Fatalf("Edges() = %v, reference %v", g.Edges(), ref.Edges())
		}
		restored, err := Restore(p.Config, ref.Nodes(), ref.Edges())
		if err != nil {
			t.Fatalf("the reference graph does not restore: %v", err)
		}
		got, err := p.State()
		if err != nil {
			t.Fatal(err)
		}
		want, err := restored.State()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("State bytes differ from the reference graph's")
		}
	})
}

// Nodes returns the graph's nodes sorted by ID.
func (g *Graph) Nodes() []Node {
	out := make([]Node, 0, g.nodeCount)
	for id, n := range g.nodes {
		if n > 0 {
			out = append(out, Node{ID: id, Count: n, Fatal: isFatalID(id)})
		}
	}
	return out
}

// Edges returns the graph's edges sorted by (From, To), with
// probabilities computed against the From node's occurrence count.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.edgeCount)
	for from := range g.edges {
		for to := range g.edges[from] {
			st := &g.edges[from][to]
			if st.count == 0 {
				continue
			}
			out = append(out, Edge{
				From:        from,
				To:          to,
				Count:       st.count,
				Probability: g.probability(from, to),
				GapSum:      st.gapSum,
				MinGap:      st.minGap,
				MaxGap:      st.maxGap,
			})
		}
	}
	return out
}
