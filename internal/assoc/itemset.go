// Package assoc implements association-rule mining (paper §3.2.2): the
// Apriori algorithm of Agrawal & Srikant [1] and the FP-growth
// algorithm of Han et al. [15], plus the paper's rule post-processing
// (combining rules with equal bodies, sorting by confidence).
//
// Items are small non-negative integers; in this system they are
// catalog subcategory IDs. A transaction is the "event-set" of paper
// §3.2.2 step 1: the subcategories observed in a rule-generation
// window, including the fatal event.
package assoc

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// Item is an element of a transaction, e.g. a catalog subcategory ID.
type Item = int

// Itemset is a sorted, duplicate-free set of items.
type Itemset []Item

// Transaction is the itemset recorded for one observation window.
type Transaction = Itemset

// NewItemset builds a sorted, duplicate-free itemset from items in any
// order.
func NewItemset(items ...Item) Itemset {
	s := append(Itemset(nil), items...)
	sort.Ints(s)
	out := s[:0]
	for i, it := range s {
		if i == 0 || it != s[i-1] {
			out = append(out, it)
		}
	}
	return out
}

// Contains reports whether the sorted itemset s contains item.
func (s Itemset) Contains(item Item) bool {
	idx := sort.SearchInts(s, item)
	return idx < len(s) && s[idx] == item
}

// ContainsAll reports whether the sorted itemset s is a superset of the
// sorted itemset other.
func (s Itemset) ContainsAll(other Itemset) bool {
	if len(other) > len(s) {
		return false
	}
	i := 0
	for _, want := range other {
		for i < len(s) && s[i] < want {
			i++
		}
		if i >= len(s) || s[i] != want {
			return false
		}
		i++
	}
	return true
}

// Equal reports whether two sorted itemsets hold the same items.
func (s Itemset) Equal(other Itemset) bool {
	if len(s) != len(other) {
		return false
	}
	for i := range s {
		if s[i] != other[i] {
			return false
		}
	}
	return true
}

// Key returns a compact map key uniquely identifying the itemset. An
// item below 0xffff takes two little-endian bytes (every catalog
// subcategory ID does); any other item takes the escape 0xff 0xff and
// then eight bytes, so the code is prefix-free and two itemsets share a
// key only when they hold the same items.
func (s Itemset) Key() string {
	var b strings.Builder
	b.Grow(2 * len(s))
	for _, it := range s {
		if uint(it) < 0xffff {
			b.WriteByte(byte(it))
			b.WriteByte(byte(it >> 8))
		} else {
			b.Write(binary.LittleEndian.AppendUint64([]byte{0xff, 0xff}, uint64(it)))
		}
	}
	return b.String()
}

// String renders the itemset as "{1 4 9}".
func (s Itemset) String() string {
	parts := make([]string, len(s))
	for i, it := range s {
		parts[i] = fmt.Sprint(it)
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// Clone returns an independent copy.
func (s Itemset) Clone() Itemset { return append(Itemset(nil), s...) }

// denseItems bounds the items an itemTable holds in its array; the
// catalog's subcategory IDs all fall below it.
const denseItems = 256

// itemTable maps items to int32 values, zero for an item never set: an
// array for items in [0, denseItems), a map for any other.
type itemTable struct {
	dense  [denseItems]int32
	sparse map[Item]int32
}

func (t *itemTable) get(it Item) int32 {
	if uint(it) < denseItems {
		return t.dense[it]
	}
	return t.sparse[it]
}

func (t *itemTable) set(it Item, v int32) {
	if uint(it) < denseItems {
		t.dense[it] = v
		return
	}
	if t.sparse == nil {
		t.sparse = make(map[Item]int32)
	}
	t.sparse[it] = v
}

// each calls fn for every item with a non-zero value.
func (t *itemTable) each(fn func(Item, int32)) {
	for it, v := range t.dense {
		if v != 0 {
			fn(it, v)
		}
	}
	for it, v := range t.sparse {
		if v != 0 {
			fn(it, v)
		}
	}
}

func (t *itemTable) clear() {
	t.dense = [denseItems]int32{}
	clear(t.sparse)
}

// FrequentItemset pairs an itemset with its transaction count.
type FrequentItemset struct {
	Items Itemset
	Count int
}

// Miner finds all itemsets whose support count meets minCount, with at
// most maxLen items (maxLen <= 0 means unbounded). Implementations:
// Apriori and FPGrowth.
type Miner interface {
	// Mine returns frequent itemsets in no particular order.
	Mine(tx []Transaction, minCount, maxLen int) []FrequentItemset
}

// SupportCount converts a fractional minimum support into an absolute
// transaction count (at least 1).
func SupportCount(minSupport float64, numTransactions int) int {
	c := int(minSupport * float64(numTransactions))
	if float64(c) < minSupport*float64(numTransactions) {
		c++
	}
	if c < 1 {
		c = 1
	}
	return c
}
