package sg

import (
	"fmt"
	"math/bits"
)

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
// call's own, from which each of the six pieces (here and in assemble)
// is carved once, to its exact size.
//
// Every state gets a component label in one array: first the inverted
// class (^c, negative), then, by a DFS over the class's own edges, the
// region number in discovery order (ascending by each component's
// least state, classes in region order). assemble then builds the
// regions from the labels. Without an arena a call makes a constant six
// allocations whatever the graph's size, each sized to what it holds;
// with one, once the arena has grown, none.
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
	return assemble(ix, sig, label, &start, ints[n:2*n:2*n], ints[2*n:2*n:3*n], nil, ar)
}

// assemble builds signal sig's decomposition from a labelling of the
// graph's states: label[s] is the number of s's region, the regions of
// class c numbered from start[c] up in the order of their least states
// (start[4] is the region count). It carves the region structs, their
// pointers and one ⌈n/64⌉-word set per region from ar, so a signal
// with four regions costs four sets, not n+2. One backward pass over
// the states buckets each into its region (a counting sort by label),
// writing the regions' States into states, one slot per state, so they
// come out ascending without a sort. The regions' Min lists are
// appended to minBuf, which has room for them: bit sig of minMask[s]
// marks s minimal when minMask is not nil, and otherwise s's
// predecessors are scanned for one in its region.
func assemble[L int | int32](ix *Index, sig int, label []L, start *[5]int, states, minBuf []int, minMask []uint64, ar *RegionArena) *Regions {
	g := ix.G
	n := len(label)
	tot, ne := start[4], start[2]

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
	for s := n - 1; s >= 0; s-- {
		k := int(label[s])
		end[k]--
		states[end[k]] = s
		words[k*w+s>>6] |= 1 << uint(s&63)
	}
	// The backward pass left end[k] at region k's first state.

	res := &carve(&ar.res, 1)[0]
	res.Signal = sig
	regs := carve(&ar.regs, tot)
	ptrs := carve(&ar.ptrs, tot)
	bit := uint64(1) << uint(sig)
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
				if minMask != nil {
					minimal = minMask[s]&bit != 0
				} else {
					for _, e := range g.States[s].Pred {
						if int(label[e.To]) == k {
							minimal = false
							break
						}
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
				if j := int(label[to]) - ne; j >= 0 && res.QR[j].Dir == er.Dir {
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

// NewRegionTable builds g's dense Index and decomposes every signal.
// One word-parallel pass labels the regions of all signals
// (labelRegions); each signal's row of labels is then renumbered class
// by class and assembled exactly as RegionsIn assembles its own, so the
// table holds what RegionsOf computes signal by signal. Each signal
// carves only its states and minimal states, sized to their count; the
// labels live in scratch the table does not keep.
func NewRegionTable(g *Graph) *RegionTable {
	ix := NewIndex(g)
	n := g.NumStates()
	t := &RegionTable{Idx: ix, Regs: make([]*Regions, ix.nsig)}
	var lr regionLabels
	ix.labelRegions(&lr)
	for sig := range t.Regs {
		var start [5]int
		for c, k := range lr.count[sig] {
			start[c+1] = start[c] + int(k)
		}
		row := lr.label[sig*n : (sig+1)*n : (sig+1)*n]
		nmin := 0
		for s := range row {
			e, v := ix.excited[s]>>uint(sig)&1, lr.code[s]>>uint(sig)&1
			row[s] += int32(start[v^(e^1)*3]) // class: v when excited, 3-v when stable
			nmin += int(lr.minimal[s] >> uint(sig) & 1)
		}
		var ar RegionArena
		ints := carve(&ar.ints, n+nmin)
		t.Regs[sig] = assemble(ix, sig, row, &start, ints[:n:n], ints[n:n], lr.minimal, &ar)
	}
	return t
}

// regionLabels is labelRegions' output. label[sig*n+s] numbers state
// s's region among the regions of its class for signal sig (classes in
// classDir order), by least state; count[sig][c] counts the regions of
// class c. Bit sig of minimal[s] says s has no predecessor in its
// region (Definition 8). code[s] is state s's code.
type regionLabels struct {
	label         []int32
	count         [64][4]int32
	code, minimal []uint64
}

// labelRegions numbers the regions of every signal of ix's graph at
// once. An arc between u and v keeps both ends in one class for exactly
// the signals in keep(u,v) = ^(exc[u]^exc[v]) & ^(code[u]^code[v]), so
// one word per state tracks all signals: done[s] holds the signals for
// which s has a region number, pend[s] those it has not yet pushed to
// its neighbours. A round seeds each (signal, class) pair at the least
// state still unlabelled in that class, with the class's next number.
// It then sweeps the pending states in ascending order: u pushes
// pend[u] & keep(u,v) &^ done[v] to each successor and predecessor v,
// copying those signals' numbers to v. A round labels one region of
// each pair and ends when no state is pending; the next starts while
// some state is unlabelled for some signal. A seed is its region's
// least state, so each class's regions are numbered by least state, as
// RegionsIn's DFS numbers them. Because explore numbers states in BFS
// order, ascending sweeps merge the signals' waves: a state gathers
// the signals its lower neighbours push before it pushes them on, so
// it is taken about 1.5 times whatever the signal count. Minimal states
// come from one word per state: bit a of the complement of the OR of
// keep(p,v) over v's predecessors p says v has none in its region.
//
//reprolint:hotpath
func (ix *Index) labelRegions(lr *regionLabels) {
	g, exc := ix.G, ix.excited
	n := len(g.States)
	full := uint64(1)<<uint(ix.nsig) - 1 // ^uint64(0) at 64 signals
	w := (n + 63) / 64
	buf := make([]uint64, 4*n+w)
	lr.code, lr.minimal = buf[:n:n], buf[n:2*n:2*n]
	done, pend, queue := buf[2*n:3*n:3*n], buf[3*n:4*n:4*n], StateSet(buf[4*n:])
	lr.label = make([]int32, ix.nsig*n)
	code, label := lr.code, lr.label
	for s := range code {
		code[s] = g.States[s].Code
	}
	for v := range g.States {
		var in uint64
		for _, e := range g.States[v].Pred {
			in |= ^(exc[e.To] ^ exc[v]) & ^(code[e.To] ^ code[v])
		}
		lr.minimal[v] = full &^ in
	}
	for lo := 0; ; {
		for lo < n && done[lo] == full {
			lo++
		}
		if lo == n {
			return
		}
		var seeded [4]uint64
		for s := lo; s < n; s++ {
			un := full &^ done[s]
			if un == 0 {
				continue
			}
			e, v := exc[s], code[s]
			for c, m := range [4]uint64{e &^ v, e & v, v &^ e, ^(e | v)} {
				if m &= un &^ seeded[c]; m == 0 {
					continue
				}
				seeded[c] |= m
				done[s] |= m
				pend[s] |= m
				queue.Add(s)
				for b := m; b != 0; b &= b - 1 {
					sig := bits.TrailingZeros64(b)
					label[sig*n+s] = lr.count[sig][c]
					lr.count[sig][c]++
				}
			}
		}
		// Sweep the pending states in ascending order until none is
		// left; a push to a lower state waits for the next sweep.
		for first := queue.next(lo); first >= 0; first = queue.next(lo) {
			for u := first; u >= 0; u = queue.next(u + 1) {
				queue.Remove(u)
				m, eu, cu := pend[u], exc[u], code[u]
				pend[u] = 0
				st := &g.States[u]
				for _, adj := range [2][]Edge{st.Succ, st.Pred} {
					for _, e := range adj {
						v := e.To
						push := m & ^(eu ^ exc[v]) & ^(cu ^ code[v]) &^ done[v]
						if push == 0 {
							continue
						}
						done[v] |= push
						pend[v] |= push
						queue.Add(v)
						for b := push; b != 0; b &= b - 1 {
							row := bits.TrailingZeros64(b) * n
							label[row+v] = label[row+u]
						}
					}
				}
			}
		}
	}
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
// It walks each excitation region's predecessor edges, which are its
// triggers in Triggers' order, and tests each trigger signal once,
// against the OR of the signals excited in the region.
func (t *RegionTable) PersistencyViolations() []PersistencyViolation {
	ix, g := t.Idx, t.Idx.G
	var out []PersistencyViolation
	for sig, regs := range t.Regs {
		if g.Input[sig] {
			continue
		}
		for _, er := range regs.ER {
			var excited uint64
			for _, s := range er.States {
				excited |= ix.excited[s]
			}
			seen := uint64(1) << uint(sig) // a region's own signal never triggers it
			for _, s := range er.States {
				for _, e := range g.States[s].Pred {
					bit := uint64(1) << uint(e.Signal)
					if seen&bit != 0 || er.Contains(e.To) {
						continue
					}
					seen |= bit
					if excited&bit != 0 {
						out = append(out, PersistencyViolation{Region: er, Trigger: e.Signal})
					}
				}
			}
		}
	}
	return out
}

// Persistent reports whether every non-input excitation region is
// persistent with respect to its trigger signals (Definition 12).
func (g *Graph) Persistent() bool { return len(g.PersistencyViolations()) == 0 }
