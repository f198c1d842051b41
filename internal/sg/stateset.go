package sg

import "math/bits"

// StateSet is a dense bitset over the state indices of one graph. It is
// the shared set representation of the analysis stack: region membership
// (Definitions 5–9), the characteristic sets of Definition 13, CFRs, and
// the τ-closures of the bisimulation checker all use it in place of
// map[int]bool, making membership O(1) and union/intersection word-wide.
//
// The zero value is an empty set that cannot hold members; construct
// with NewStateSet(n) where n is the number of states.
type StateSet []uint64

// NewStateSet returns an empty set with capacity for states 0..n-1.
func NewStateSet(n int) StateSet { return make(StateSet, (n+63)/64) }

// Add inserts state s.
func (b StateSet) Add(s int) { b[s>>6] |= 1 << uint(s&63) }

// Remove deletes state s.
func (b StateSet) Remove(s int) { b[s>>6] &^= 1 << uint(s&63) }

// Has reports whether state s is a member. States beyond the set's
// capacity are absent.
func (b StateSet) Has(s int) bool {
	w := s >> 6
	return w < len(b) && b[w]>>uint(s&63)&1 == 1
}

// Count returns the number of members.
func (b StateSet) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no members.
func (b StateSet) Empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (b StateSet) Clone() StateSet {
	out := make(StateSet, len(b))
	copy(out, b)
	return out
}

// UnionWith adds every member of o (which must not be larger than b).
func (b StateSet) UnionWith(o StateSet) {
	for i, w := range o {
		b[i] |= w
	}
}

// Union returns a new set holding b ∪ o.
func (b StateSet) Union(o StateSet) StateSet {
	out := b.Clone()
	out.UnionWith(o)
	return out
}

// IntersectWith removes every member not in o.
func (b StateSet) IntersectWith(o StateSet) {
	for i := range b {
		if i < len(o) {
			b[i] &= o[i]
		} else {
			b[i] = 0
		}
	}
}

// ForEach calls fn with every member in ascending order.
func (b StateSet) ForEach(fn func(s int)) {
	for i, w := range b {
		for w != 0 {
			fn(i<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// FindFirst calls fn with every member in ascending order until fn
// returns true; it returns that member, or -1 when fn never succeeds.
func (b StateSet) FindFirst(fn func(s int) bool) int {
	for i, w := range b {
		for w != 0 {
			s := i<<6 + bits.TrailingZeros64(w)
			if fn(s) {
				return s
			}
			w &= w - 1
		}
	}
	return -1
}

// next returns the least member not below s, or -1 when there is none.
func (b StateSet) next(s int) int {
	i := s >> 6
	if i >= len(b) {
		return -1
	}
	for w := b[i] >> uint(s&63) << uint(s&63); ; w = b[i] {
		if w != 0 {
			return i<<6 + bits.TrailingZeros64(w)
		}
		if i++; i == len(b) {
			return -1
		}
	}
}

// Members returns the sorted member slice.
func (b StateSet) Members() []int {
	out := make([]int, 0, b.Count())
	b.ForEach(func(s int) { out = append(out, s) })
	return out
}

// SetOf builds a set over n states holding exactly the given members.
func SetOf(n int, members ...int) StateSet {
	b := NewStateSet(n)
	for _, s := range members {
		b.Add(s)
	}
	return b
}
