package assoc

import "sort"

// FPGrowth is the pattern-growth frequent-itemset miner of Han, Pei,
// Yin & Mao (paper reference [15]). It avoids candidate generation by
// projecting the transaction database into an FP-tree and mining
// conditional trees recursively.
type FPGrowth struct{}

type fpNode struct {
	item   Item
	count  int
	parent *fpNode
	// children is searched linearly: fan-out is small, and a slice
	// spares every node a map.
	children []*fpNode
	next     *fpNode // header-table chain of nodes with the same item
}

// child returns the child node holding it, or nil.
func (n *fpNode) child(it Item) *fpNode {
	for _, c := range n.children {
		if c.item == it {
			return c
		}
	}
	return nil
}

type fpTree struct {
	root    *fpNode
	headers map[Item]*fpNode
	counts  map[Item]int
}

func newFPTree() *fpTree {
	return &fpTree{
		root:    &fpNode{},
		headers: make(map[Item]*fpNode),
		counts:  make(map[Item]int),
	}
}

// insert adds a (frequency-ordered) item path with the given count.
func (t *fpTree) insert(path []Item, count int) {
	node := t.root
	for _, it := range path {
		child := node.child(it)
		if child == nil {
			child = &fpNode{item: it, parent: node, next: t.headers[it]}
			t.headers[it] = child
			node.children = append(node.children, child)
		}
		child.count += count
		t.counts[it] += count
		node = child
	}
}

// Mine implements Miner.
func (f *FPGrowth) Mine(tx []Transaction, minCount, maxLen int) []FrequentItemset {
	if minCount < 1 {
		minCount = 1
	}
	// Global item counts determine the canonical insertion order.
	counts := make(map[Item]int)
	for _, t := range tx {
		for _, it := range t {
			counts[it]++
		}
	}
	order := func(a, b Item) bool {
		if counts[a] != counts[b] {
			return counts[a] > counts[b]
		}
		return a < b
	}
	tree := newFPTree()
	var path []Item
	for _, t := range tx {
		path = path[:0]
		for _, it := range t {
			if counts[it] >= minCount {
				path = append(path, it)
			}
		}
		sort.Slice(path, func(i, j int) bool { return order(path[i], path[j]) })
		if len(path) > 0 {
			tree.insert(path, 1)
		}
	}
	var out []FrequentItemset
	mineTree(tree, nil, minCount, maxLen, &out)
	return out
}

// mineTree emits all frequent itemsets extending suffix.
func mineTree(t *fpTree, suffix Itemset, minCount, maxLen int, out *[]FrequentItemset) {
	if maxLen > 0 && len(suffix) >= maxLen {
		return
	}
	// Iterate items in deterministic order for reproducible output.
	items := make([]Item, 0, len(t.headers))
	for it := range t.headers {
		items = append(items, it)
	}
	sort.Ints(items)
	for _, it := range items {
		support := t.counts[it]
		if support < minCount {
			continue
		}
		pattern := NewItemset(append(suffix.Clone(), it)...)
		*out = append(*out, FrequentItemset{Items: pattern, Count: support})

		if maxLen > 0 && len(pattern) >= maxLen {
			continue
		}
		// Build the conditional tree for `it`: every prefix path leading
		// to an `it` node, weighted by that node's count.
		cond := newFPTree()
		var rev []Item
		for node := t.headers[it]; node != nil; node = node.next {
			rev = rev[:0]
			for p := node.parent; p != nil && p.parent != nil; p = p.parent {
				rev = append(rev, p.item)
			}
			if len(rev) == 0 {
				continue
			}
			// rev is leaf-to-root; reverse into root-to-leaf order.
			fwd := make([]Item, len(rev))
			for i, v := range rev {
				fwd[len(rev)-1-i] = v
			}
			cond.insert(fwd, node.count)
		}
		if len(cond.headers) > 0 {
			mineTree(cond, pattern, minCount, maxLen, out)
		}
	}
}
