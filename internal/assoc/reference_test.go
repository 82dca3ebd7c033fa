package assoc

import (
	"reflect"
	"sort"
	"testing"
)

// referenceFPGrowth is FP-growth as it was first written: pointer
// nodes, header and count maps per tree, and paths ordered by a
// comparator over the global count map. It is the oracle the
// rank-based FPGrowth must match itemset for itemset, order included.
type referenceFPGrowth struct{}

type refNode struct {
	item     Item
	count    int
	parent   *refNode
	children []*refNode
	next     *refNode
}

func (n *refNode) child(it Item) *refNode {
	for _, c := range n.children {
		if c.item == it {
			return c
		}
	}
	return nil
}

type refTree struct {
	root    *refNode
	headers map[Item]*refNode
	counts  map[Item]int
}

func newRefTree() *refTree {
	return &refTree{root: &refNode{}, headers: make(map[Item]*refNode), counts: make(map[Item]int)}
}

func (t *refTree) insert(path []Item, count int) {
	node := t.root
	for _, it := range path {
		child := node.child(it)
		if child == nil {
			child = &refNode{item: it, parent: node, next: t.headers[it]}
			t.headers[it] = child
			node.children = append(node.children, child)
		}
		child.count += count
		t.counts[it] += count
		node = child
	}
}

func (referenceFPGrowth) Mine(tx []Transaction, minCount, maxLen int) []FrequentItemset {
	if minCount < 1 {
		minCount = 1
	}
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
	tree := newRefTree()
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
	refMineTree(tree, nil, minCount, maxLen, &out)
	return out
}

func refMineTree(t *refTree, suffix Itemset, minCount, maxLen int, out *[]FrequentItemset) {
	if maxLen > 0 && len(suffix) >= maxLen {
		return
	}
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
		cond := newRefTree()
		var rev []Item
		for node := t.headers[it]; node != nil; node = node.next {
			rev = rev[:0]
			for p := node.parent; p != nil && p.parent != nil; p = p.parent {
				rev = append(rev, p.item)
			}
			if len(rev) == 0 {
				continue
			}
			fwd := make([]Item, len(rev))
			for i, v := range rev {
				fwd[len(rev)-1-i] = v
			}
			cond.insert(fwd, node.count)
		}
		if len(cond.headers) > 0 {
			refMineTree(cond, pattern, minCount, maxLen, out)
		}
	}
}

// fuzzTransactions decodes bytes into transactions: 0xff closes the
// current transaction, a byte below 0xc0 is that item, and any other
// byte is an item at or above 65536, beyond both a byte and the
// two-byte keys itemsets once used. A transaction keeps its first
// maxFuzzTxLen items, so a low minCount cannot ask for 2^n itemsets.
func fuzzTransactions(data []byte) []Transaction {
	const maxFuzzTxLen = 10
	var tx []Transaction
	var cur []Item
	for _, b := range data {
		switch {
		case b == 0xff:
			tx = append(tx, NewItemset(cur...))
			cur = cur[:0]
		case len(cur) == maxFuzzTxLen:
		case b < 0xc0:
			cur = append(cur, Item(b))
		default:
			cur = append(cur, 1<<16+Item(b-0xc0)*300)
		}
	}
	return append(tx, NewItemset(cur...))
}

// FuzzFPGrowthMatchesReference mines arbitrary transactions with both
// miners: the same frequent itemsets must come out in the same order
// with the same counts.
func FuzzFPGrowthMatchesReference(f *testing.F) {
	f.Add(byte(2), byte(0), []byte{1, 2, 5, 0xff, 2, 4, 0xff, 2, 3, 0xff, 1, 2, 4, 0xff, 1, 3, 0xff, 2, 3, 0xff, 1, 3, 0xff, 1, 2, 3, 5, 0xff, 1, 2, 3})
	f.Add(byte(1), byte(3), []byte{0, 1, 0xff, 0xc0, 1, 0xff, 0xc0, 0xff, 7})
	f.Add(byte(0), byte(1), []byte{})
	f.Add(byte(3), byte(2), []byte{9, 9, 9, 0xff, 9, 0xff, 9, 0xfe, 0xff, 0xfe, 9, 0xff})
	f.Fuzz(func(t *testing.T, minCount, maxLen byte, data []byte) {
		tx := fuzzTransactions(data)
		mc, ml := int(minCount%8), int(maxLen%6)
		got := (&FPGrowth{}).Mine(tx, mc, ml)
		want := referenceFPGrowth{}.Mine(tx, mc, ml)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Mine(minCount=%d, maxLen=%d) = %v, reference %v", mc, ml, got, want)
		}
	})
}
