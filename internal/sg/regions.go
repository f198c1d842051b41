package sg

import "fmt"

// Region is a maximal connected set of states associated with one
// transition occurrence of a signal: an excitation region ER(*a_i)
// (Definition 5) or a quiescent region QR(*a_i) (Definition 6).
type Region struct {
	Signal int
	Dir    Dir // direction of the underlying transition *a_i
	Index  int // occurrence index i (1-based, in discovery order)
	States []int

	// Min lists the minimal states (no predecessor inside the region,
	// Definition 8); a region obeys the unique entry condition
	// (Definition 9) when len(Min) == 1.
	Min []int

	set StateSet
}

// Contains reports whether state s belongs to the region.
func (r *Region) Contains(s int) bool { return r.set.Has(s) }

// Set returns the region's membership bitset. Callers must not mutate it.
func (r *Region) Set() StateSet { return r.set }

// UniqueEntry reports whether the region satisfies the unique entry
// condition (Definition 9).
func (r *Region) UniqueEntry() bool { return len(r.Min) == 1 }

// MinState returns the unique minimal state u_min(*a_i); it panics when
// the unique entry condition fails.
func (r *Region) MinState() int {
	if len(r.Min) != 1 {
		panic("sg: region without unique entry")
	}
	return r.Min[0]
}

// Label renders the region as e.g. "ER(+d,1)" or "QR(-x,2)".
func (r *Region) label(g *Graph, kind string) string {
	return fmt.Sprintf("%s(%s%s,%d)", kind, r.Dir, g.Signals[r.Signal], r.Index)
}

// Regions holds the complete region decomposition of a state graph for
// one signal: alternating excitation and quiescent regions.
type Regions struct {
	Signal int
	ER     []*Region
	QR     []*Region

	// QRAfter[i] is the index into QR of the quiescent region entered
	// when the transition of ER[i] fires, or -1 when the transition leads
	// straight into another excitation region context (which cannot
	// happen in a consistent SG, but is kept defensive).
	QRAfter []int
}

// RegionsOf computes the excitation and quiescent regions of signal sig
// (Definitions 5 and 6) and the ER → following-QR association. It builds
// a transient Index; callers decomposing many signals should build one
// Index and use its RegionsOf, or one RegionTable.
func (g *Graph) RegionsOf(sig int) *Regions {
	return NewIndex(g).RegionsOf(sig)
}

// Region classes of one signal, in the order RegionsOf lists regions:
// ER(+a) (excited at 0), ER(−a) (excited at 1), QR(+a) (stable at 1,
// after an up transition) and QR(−a) (stable at 0).
var classDir = [4]Dir{Plus, Minus, Plus, Minus}

// RegionsOf computes the region decomposition of signal sig using the
// index's O(1) excitation and successor lookups. It is RegionsIn
// without an arena: every call allocates its own memory.
func (ix *Index) RegionsOf(sig int) *Regions { return ix.RegionsIn(sig, nil) }

// RegionArena is reusable memory for region decompositions. RegionsIn
// carves a decomposition's regions, state lists and sets from it
// instead of allocating them, so a caller decomposing graph after graph
// (repair scoring, one candidate at a time) stops allocating once the
// arena has grown to its largest graph. Everything carved from an arena
// stays valid until its next Reset, which recycles the memory: the
// caller must drop every *Regions and *Region it was handed before.
// The zero value is an empty arena.
type RegionArena struct {
	ints  []int
	meta  []int
	words []uint64
	regs  []Region
	ptrs  []*Region
	res   []Regions
}

// Reset recycles the arena's memory for the next decompositions.
func (ar *RegionArena) Reset() {
	ar.ints, ar.meta, ar.words = ar.ints[:0], ar.meta[:0], ar.words[:0]
	ar.regs, ar.ptrs, ar.res = ar.regs[:0], ar.ptrs[:0], ar.res[:0]
}

// carve returns n zeroed elements from the free tail of *buf. A tail
// too short is replaced by a new buffer of at least twice the old
// capacity; slices carved earlier keep the memory they were carved
// from. Carved once from an empty buffer, it allocates exactly n.
func carve[T any](buf *[]T, n int) []T {
	b := *buf
	if cap(b)-len(b) < n {
		b = make([]T, 0, max(2*cap(b), n))
	} else {
		clear(b[len(b) : len(b)+n])
	}
	out := b[len(b) : len(b)+n : len(b)+n]
	*buf = b[:len(b)+n]
	return out
}

// RegionsIn is RegionsOf with its memory carved from ar; the result is
// valid until ar's next Reset. A nil ar stands for a fresh arena of the
// call's own, from which each of the six pieces below is carved once,
// to its exact size.
//
// Every state gets a component label in one array: first the inverted
// class (^c, negative), then, by a DFS over the class's own edges, the
// region number in discovery order (ascending by each component's
// least state, classes in region order). Only then, with the region
// count known, are the region structs and their bitsets allocated, one
// ⌈n/64⌉-word set per region; and one backward pass over the states
// buckets each state into its region (a counting sort by label), so
// every region's States and Min come out ascending without a sort.
// Without an arena a call makes a constant six allocations whatever the
// graph's size, each sized to what it holds; with one, once the arena
// has grown, none.
func (ix *Index) RegionsIn(sig int, ar *RegionArena) *Regions {
	if ar == nil {
		ar = new(RegionArena)
	}
	g := ix.G
	n := g.NumStates()
	bit := uint64(1) << uint(sig)
	// One int backing: the labels, then the DFS stack (which, once every
	// state is labelled, becomes the bucketed region states), then the
	// minimal states, which never outnumber the states.
	ints := carve(&ar.ints, 3*n)
	label := ints[:n:n]
	for s := range label {
		c := 3 // stable at 0
		if ix.excited[s]&bit != 0 {
			c = 0 // excited at 0
			if g.Value(s, sig) {
				c = 1
			}
		} else if g.Value(s, sig) {
			c = 2
		}
		label[s] = ^c
	}
	stack := ints[n : n : 2*n]
	var start [5]int // start[c]: first region number of class c
	tot := 0
	for c := range 4 {
		start[c] = tot
		for s0, l := range label {
			if l != ^c {
				continue
			}
			label[s0] = tot
			for stack = append(stack[:0], s0); len(stack) > 0; {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, e := range g.States[u].Succ {
					if label[e.To] == ^c {
						label[e.To] = tot
						stack = append(stack, e.To)
					}
				}
				for _, e := range g.States[u].Pred {
					if label[e.To] == ^c {
						label[e.To] = tot
						stack = append(stack, e.To)
					}
				}
			}
			tot++
		}
	}
	start[4] = tot
	ne := start[2]

	// Counting sort by label, in ascending state order: end[k] first
	// counts region k, then becomes its end offset in states.
	w := (n + 63) / 64
	words := carve(&ar.words, tot*w)
	meta := carve(&ar.meta, tot+ne)
	end, qrAfter := meta[:tot:tot], meta[tot:]
	for _, k := range label {
		end[k]++
	}
	for k := 1; k < tot; k++ {
		end[k] += end[k-1]
	}
	states := ints[n : 2*n : 2*n]
	for s := n - 1; s >= 0; s-- {
		k := label[s]
		end[k]--
		states[end[k]] = s
		words[k*w+s>>6] |= 1 << uint(s&63)
	}
	// The backward pass left end[k] at region k's first state.

	res := &carve(&ar.res, 1)[0]
	res.Signal = sig
	regs := carve(&ar.regs, tot)
	ptrs := carve(&ar.ptrs, tot)
	minBuf := ints[2*n : 2*n : 3*n]
	for c := range 4 {
		for k := start[c]; k < start[c+1]; k++ {
			hi := n
			if k+1 < tot {
				hi = end[k+1]
			}
			r := &regs[k]
			r.Signal, r.Dir, r.Index = sig, classDir[c], k-start[c]+1
			r.States = states[end[k]:hi:hi]
			r.set = StateSet(words[k*w : (k+1)*w : (k+1)*w])
			// Minimal states (Definition 8): no predecessor in the region.
			off := len(minBuf)
			for _, s := range r.States {
				minimal := true
				for _, e := range g.States[s].Pred {
					if label[e.To] == k {
						minimal = false
						break
					}
				}
				if minimal {
					minBuf = append(minBuf, s)
				}
			}
			r.Min = minBuf[off:len(minBuf):len(minBuf)]
			ptrs[k] = r
		}
	}
	res.ER, res.QR = ptrs[:ne:ne], ptrs[ne:]
	// Associate each ER with the QR entered when its transition fires:
	// the QR holding the first successor along the signal that lies in a
	// QR of the same direction.
	res.QRAfter = qrAfter
	for i, er := range res.ER {
		res.QRAfter[i] = -1
		for _, s := range er.States {
			if to, ok := ix.Successor(s, sig); ok {
				if j := label[to] - ne; j >= 0 && res.QR[j].Dir == er.Dir {
					res.QRAfter[i] = j
					break
				}
			}
		}
	}
	return res
}

// RegionTable is the analysis layer of one state graph: its dense
// Index and the region decomposition of every signal. Every check the
// paper defines (ER/QR, CFR, minimal states and unique entry,
// persistency, the Monotonous Cover conditions) reads one signal's
// decomposition, so a synthesis decomposes each graph once, into a
// table, and hands the table on. Nothing writes to a table after
// NewRegionTable returns: concurrent readers may share it, and must
// not mutate its regions.
type RegionTable struct {
	Idx  *Index
	Regs []*Regions // indexed by signal
}

// NewRegionTable builds g's dense Index and decomposes every signal,
// in signal order.
func NewRegionTable(g *Graph) *RegionTable {
	ix := NewIndex(g)
	t := &RegionTable{Idx: ix, Regs: make([]*Regions, ix.nsig)}
	for sig := range t.Regs {
		t.Regs[sig] = ix.RegionsOf(sig)
	}
	return t
}

// ERLabel renders an excitation region name such as "ER(+d,1)".
func (g *Graph) ERLabel(r *Region) string { return r.label(g, "ER") }

// QRLabel renders a quiescent region name such as "QR(+d,1)".
func (g *Graph) QRLabel(r *Region) string { return r.label(g, "QR") }

// CFR returns the constant function region of the i-th excitation region
// of res (Definition 7): ER(*a_i) ∪ QR(*a_i), as a state set.
func (res *Regions) CFR(i int) StateSet {
	return res.CFRInto(i, make(StateSet, len(res.ER[i].set)))
}

// CFRInto is CFR writing into a caller-provided set of at least the
// region bitset's word width, returning the written prefix. It lets the
// per-candidate scoring loop reuse one buffer across its CFR queries.
func (res *Regions) CFRInto(i int, dst StateSet) StateSet {
	er := res.ER[i].set
	dst = dst[:len(er)]
	copy(dst, er)
	if j := res.QRAfter[i]; j >= 0 {
		dst.UnionWith(res.QR[j].set)
	}
	return dst
}

// Trigger is a transition that can enter an excitation region from
// outside (Definition 10).
type Trigger struct {
	Signal int
	Dir    Dir
	From   int // state outside the region
	To     int // state inside the region
}

// Triggers returns the trigger transitions of region er: edges from a
// state outside the region to a state inside it, excluding the region's
// own signal.
func (g *Graph) Triggers(er *Region) []Trigger {
	var out []Trigger
	for _, s := range er.States {
		for _, e := range g.States[s].Pred {
			if er.Contains(e.To) || e.Signal == er.Signal {
				continue
			}
			out = append(out, Trigger{Signal: e.Signal, Dir: e.Dir, From: e.To, To: s})
		}
	}
	return out
}

// Ordered reports whether signal b is ordered with respect to the
// excitation region er (Definition 11): no transition of b is excited
// within er. The region's own signal is not ordered with itself.
func (g *Graph) Ordered(er *Region, b int) bool {
	if b == er.Signal {
		return false
	}
	for _, s := range er.States {
		if g.Excited(s, b) {
			return false
		}
	}
	return true
}

// Concurrent reports whether signal b is concurrent with er's transition
// (the negation of Ordered for signals other than er's own).
func (g *Graph) Concurrent(er *Region, b int) bool {
	if b == er.Signal {
		return false
	}
	return !g.Ordered(er, b)
}

// PersistencyViolation describes a trigger signal that is concurrent with
// the excitation region it triggers (Definition 12).
type PersistencyViolation struct {
	Region  *Region
	Trigger int // trigger signal that is non-persistent
}

// PersistencyViolations returns every (excitation region, trigger signal)
// pair of non-input signals violating persistency. A state graph is
// persistent when the result is empty.
func (g *Graph) PersistencyViolations() []PersistencyViolation {
	return NewRegionTable(g).PersistencyViolations()
}

// PersistencyViolations is the table-backed form of the graph method.
func (t *RegionTable) PersistencyViolations() []PersistencyViolation {
	ix, g := t.Idx, t.Idx.G
	var out []PersistencyViolation
	for sig, regs := range t.Regs {
		if g.Input[sig] {
			continue
		}
		for _, er := range regs.ER {
			var seen uint64
			for _, tr := range g.Triggers(er) {
				if seen>>uint(tr.Signal)&1 == 1 {
					continue
				}
				seen |= 1 << uint(tr.Signal)
				if ix.Concurrent(er, tr.Signal) {
					out = append(out, PersistencyViolation{Region: er, Trigger: tr.Signal})
				}
			}
		}
	}
	return out
}

// Persistent reports whether every non-input excitation region is
// persistent with respect to its trigger signals (Definition 12).
func (g *Graph) Persistent() bool { return len(g.PersistencyViolations()) == 0 }
