package assoc

import (
	"cmp"
	"slices"
)

// FPGrowth is the pattern-growth frequent-itemset miner of Han, Pei,
// Yin & Mao (paper reference [15]). It avoids candidate generation by
// projecting the transaction database into an FP-tree and mining
// conditional trees recursively.
//
// The trees work on ranks, not items: the frequent items are numbered
// once, by count descending and then item ID, so a transaction's path
// is its ranks in ascending order, and every per-item table is a slice
// indexed by rank.
type FPGrowth struct{}

// noNode is the null link of the node arena.
const noNode int32 = -1

// fpNode is one node of an FP-tree, linked by index into the tree's
// arena: its parent, its first child, its next sibling, and the next
// node of the same rank (the header chain).
type fpNode struct {
	rank                   int32
	count                  int32
	parent, child, sibling int32
	next                   int32
}

// fpTree is an FP-tree over ranks [0, len(head)). nodes[0] is the
// root; head[r] starts rank r's chain and counts[r] sums its nodes. The
// root's children, one per rank at most and the widest fan-out in the
// tree, are found through top[r]; every other node's by walking its
// sibling list.
type fpTree struct {
	nodes  []fpNode
	head   []int32
	counts []int32
	top    []int32
}

// reset empties t for ranks [0, n), keeping its storage.
func (t *fpTree) reset(n int) {
	t.nodes = append(t.nodes[:0], fpNode{parent: noNode, child: noNode, sibling: noNode, next: noNode})
	t.head = slices.Grow(t.head[:0], n)[:n]
	t.counts = slices.Grow(t.counts[:0], n)[:n]
	t.top = slices.Grow(t.top[:0], n)[:n]
	for r := range t.head {
		t.head[r] = noNode
		t.counts[r] = 0
		t.top[r] = noNode
	}
}

// insertReversed adds a path of ascending ranks, read from its end to
// its start, with the given count.
func (t *fpTree) insertReversed(rev []int32, count int32) {
	node := int32(0)
	for i := len(rev) - 1; i >= 0; i-- {
		r := rev[i]
		var c int32
		if node == 0 {
			c = t.top[r]
		} else {
			c = t.nodes[node].child
			for c != noNode && t.nodes[c].rank != r {
				c = t.nodes[c].sibling
			}
		}
		if c == noNode {
			c = int32(len(t.nodes))
			t.nodes = append(t.nodes, fpNode{
				rank: r, parent: node, child: noNode,
				sibling: t.nodes[node].child, next: t.head[r],
			})
			t.nodes[node].child = c
			t.head[r] = c
			if node == 0 {
				t.top[r] = c
			}
		}
		t.nodes[c].count += count
		t.counts[r] += count
		node = c
	}
}

// fpMiner holds one Mine call's state: the rank tables and one tree
// per recursion depth, reused by every conditional tree at that depth.
type fpMiner struct {
	items    []Item  // rank -> item
	byItem   []int32 // ranks in ascending item order
	minCount int
	maxLen   int
	trees    []*fpTree
	rev      []int32
	out      []FrequentItemset
}

// Mine implements Miner. Itemsets come out depth-first: at each level
// the items extending the current suffix in ascending item order, each
// followed by its own extensions.
func (f *FPGrowth) Mine(tx []Transaction, minCount, maxLen int) []FrequentItemset {
	if minCount < 1 {
		minCount = 1
	}
	var ranks itemTable // item -> count, then item -> rank+1 (0: infrequent)
	for _, t := range tx {
		for _, it := range t {
			ranks.set(it, ranks.get(it)+1)
		}
	}
	type counted struct {
		item  Item
		count int32
	}
	var freq []counted
	ranks.each(func(it Item, c int32) {
		if int(c) >= minCount {
			freq = append(freq, counted{it, c})
		}
	})
	if len(freq) == 0 {
		return nil
	}
	slices.SortFunc(freq, func(a, b counted) int {
		return cmp.Or(cmp.Compare(b.count, a.count), cmp.Compare(a.item, b.item))
	})
	ranks.clear()
	m := &fpMiner{items: make([]Item, len(freq)), byItem: make([]int32, len(freq)), minCount: minCount, maxLen: maxLen}
	for r, fc := range freq {
		m.items[r] = fc.item
		m.byItem[r] = int32(r)
		ranks.set(fc.item, int32(r)+1)
	}
	slices.SortFunc(m.byItem, func(a, b int32) int { return cmp.Compare(m.items[a], m.items[b]) })

	tree := m.tree(0)
	for _, t := range tx {
		m.rev = m.rev[:0]
		for _, it := range t {
			if r := ranks.get(it); r > 0 {
				m.rev = append(m.rev, r-1)
			}
		}
		if len(m.rev) > 0 {
			// The path is the ranks ascending; insertReversed reads
			// them from the end.
			slices.Sort(m.rev)
			slices.Reverse(m.rev)
			tree.insertReversed(m.rev, 1)
		}
	}
	m.mine(0, nil)
	return m.out
}

// tree returns the reset tree for recursion depth d.
func (m *fpMiner) tree(d int) *fpTree {
	for len(m.trees) <= d {
		m.trees = append(m.trees, &fpTree{})
	}
	t := m.trees[d]
	t.reset(len(m.items))
	return t
}

// mine emits every frequent itemset extending suffix from the tree at
// depth d.
func (m *fpMiner) mine(d int, suffix Itemset) {
	if m.maxLen > 0 && len(suffix) >= m.maxLen {
		return
	}
	t := m.trees[d]
	for _, r := range m.byItem {
		support := int(t.counts[r])
		if support < m.minCount {
			continue
		}
		pattern := withItem(suffix, m.items[r])
		m.out = append(m.out, FrequentItemset{Items: pattern, Count: support})
		if m.maxLen > 0 && len(pattern) >= m.maxLen {
			continue
		}
		// The conditional tree for r: every prefix path leading to an r
		// node, weighted by that node's count. A parent's rank is below
		// its child's, so the walk to the root reads descending ranks.
		cond := m.tree(d + 1)
		for n := t.head[r]; n != noNode; n = t.nodes[n].next {
			m.rev = m.rev[:0]
			for p := t.nodes[n].parent; p > 0; p = t.nodes[p].parent {
				m.rev = append(m.rev, t.nodes[p].rank)
			}
			if len(m.rev) > 0 {
				cond.insertReversed(m.rev, t.nodes[n].count)
			}
		}
		if len(cond.nodes) > 1 {
			m.mine(d+1, pattern)
		}
	}
}

// withItem returns a new sorted itemset: suffix plus it.
func withItem(suffix Itemset, it Item) Itemset {
	i, _ := slices.BinarySearch(suffix, it)
	out := make(Itemset, len(suffix)+1)
	copy(out, suffix[:i])
	out[i] = it
	copy(out[i+1:], suffix[i:])
	return out
}
