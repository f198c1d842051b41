package sg

import (
	"fmt"
	"sort"
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

// components splits the state set into maximal weakly connected
// components using only edges whose both endpoints lie in the set. The
// scratch is the caller's: in and seen must be empty sets sized for
// the graph (they come back dirty), buf is the backing the returned
// components are carved out of (len ≥ len(states)), q is a reusable BFS
// queue, and new components are appended to comps. RegionsOf
// decomposes four partitions per signal and shares one scratch set
// across them.
func (g *Graph) components(states []int, in, seen StateSet, buf, q []int, comps [][]int) [][]int {
	for _, s := range states {
		in.Add(s)
	}
	off := 0
	for _, s := range states {
		if seen.Has(s) {
			continue
		}
		// Each component occupies the next contiguous window of buf:
		// its appends finish before the following component starts, so
		// sharing the tail capacity is safe.
		comp := buf[off:off:len(buf)]
		comp = append(comp, s)
		seen.Add(s)
		for q = append(q[:0], s); len(q) > 0; {
			u := q[len(q)-1]
			q = q[:len(q)-1]
			for _, e := range g.States[u].Succ {
				if in.Has(e.To) && !seen.Has(e.To) {
					seen.Add(e.To)
					comp = append(comp, e.To)
					q = append(q, e.To)
				}
			}
			for _, e := range g.States[u].Pred {
				if in.Has(e.To) && !seen.Has(e.To) {
					seen.Add(e.To)
					comp = append(comp, e.To)
					q = append(q, e.To)
				}
			}
		}
		off += len(comp)
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// RegionsOf computes the excitation and quiescent regions of signal sig
// (Definitions 5 and 6) and the ER → following-QR association. It builds
// a transient Index; callers decomposing many signals should build one
// Index and use its RegionsOf.
func (g *Graph) RegionsOf(sig int) *Regions {
	return NewIndex(g).RegionsOf(sig)
}

// RegionsOf computes the region decomposition of signal sig using the
// index's O(1) excitation and successor lookups.
func (ix *Index) RegionsOf(sig int) *Regions {
	g := ix.G
	bit := uint64(1) << uint(sig)
	// The four partitions always sum to the state count: count each
	// class first, then carve exact windows out of one n-int backing.
	n := g.NumStates()
	nEP, nEM, nQ0 := 0, 0, 0
	for s := range g.States {
		v := g.Value(s, sig)
		if ix.excited[s]&bit != 0 {
			if v {
				nEM++
			} else {
				nEP++
			}
		} else if !v {
			nQ0++
		}
	}
	buf := make([]int, n)
	o1, o2, o3 := nEP, nEP+nEM, nEP+nEM+nQ0
	erPlus := buf[0:0:o1]
	erMinus := buf[o1:o1:o2]
	qr0 := buf[o2:o2:o3]
	qr1 := buf[o3:o3:n]
	for s := range g.States {
		v := g.Value(s, sig)
		if ix.excited[s]&bit != 0 {
			if v {
				erMinus = append(erMinus, s)
			} else {
				erPlus = append(erPlus, s)
			}
		} else {
			if v {
				qr1 = append(qr1, s)
			} else {
				qr0 = append(qr0, s)
			}
		}
	}
	res := &Regions{Signal: sig}
	// One scratch set pair and one component backing serve all four
	// decompositions (their states are disjoint and sum to n), and all
	// regions of the signal share batch-allocated structs, bitsets and
	// minimal-state storage: region decomposition runs once per scanned
	// signal of every scored candidate graph, so the constant count of
	// allocations per call matters more than their size. The int
	// scratch (component storage, BFS queue, minimal states, QRAfter)
	// and the bitset words (in/seen scratch plus the ≤ n region sets)
	// are each carved from a single backing.
	w := (n + 63) / 64
	words := make([]uint64, (n+2)*w)
	in, seen := StateSet(words[:w:w]), StateSet(words[w:2*w:2*w])
	sets := words[2*w:]
	ints := make([]int, 4*n)
	cbuf := ints[:n]
	q := ints[n : n : 2*n]
	minBuf := ints[2*n : 2*n : 3*n]
	qrAfter := ints[3*n : 3*n : 4*n]
	// Components are disjoint and nonempty, so across the four
	// partitions there are at most n of them: one header backing, with
	// each comps() call returning its own full-capacity window.
	all := make([][]int, 0, n)
	used := 0
	comps := func(states []int) [][]int {
		clear(in)
		clear(seen)
		start := len(all)
		all = g.components(states, in, seen, cbuf[used:used+len(states)], q, all)
		used += len(states)
		return all[start:len(all):len(all)]
	}
	erP, erM := comps(erPlus), comps(erMinus)
	// QR(+a_i): a stable at 1, follows an up transition.
	qrP, qrM := comps(qr1), comps(qr0)
	tot := len(erP) + len(erM) + len(qrP) + len(qrM)
	regs := make([]Region, tot)
	ptrs := make([]*Region, tot)
	ri := 0
	build := func(d Dir, idx int, comp []int) *Region {
		r := &regs[ri]
		r.Signal, r.Dir, r.Index, r.States = sig, d, idx, comp
		r.set = sets[ri*w : (ri+1)*w : (ri+1)*w]
		ri++
		for _, s := range comp {
			r.set.Add(s)
		}
		off := len(minBuf)
		for _, s := range comp {
			minimal := true
			for _, e := range g.States[s].Pred {
				if r.set.Has(e.To) {
					minimal = false
					break
				}
			}
			if minimal {
				minBuf = append(minBuf, s)
			}
		}
		r.Min = minBuf[off:len(minBuf):len(minBuf)]
		return r
	}
	ne := len(erP) + len(erM)
	res.ER = ptrs[:0:ne]
	res.QR = ptrs[ne:ne:tot]
	for i, comp := range erP {
		res.ER = append(res.ER, build(Plus, i+1, comp))
	}
	for i, comp := range erM {
		res.ER = append(res.ER, build(Minus, i+1, comp))
	}
	for i, comp := range qrP {
		res.QR = append(res.QR, build(Plus, i+1, comp))
	}
	for i, comp := range qrM {
		res.QR = append(res.QR, build(Minus, i+1, comp))
	}
	// Associate each ER with the QR entered when its transition fires.
	res.QRAfter = qrAfter[:len(res.ER)]
	for i, er := range res.ER {
		res.QRAfter[i] = -1
		for _, s := range er.States {
			to, ok := ix.Successor(s, sig)
			if !ok {
				continue
			}
			for j, qr := range res.QR {
				if qr.Dir == er.Dir && qr.Contains(to) {
					res.QRAfter[i] = j
					break
				}
			}
			if res.QRAfter[i] >= 0 {
				break
			}
		}
	}
	return res
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
	return NewIndex(g).PersistencyViolations()
}

// PersistencyViolations is the index-backed form of the graph method.
func (ix *Index) PersistencyViolations() []PersistencyViolation {
	g := ix.G
	var out []PersistencyViolation
	for sig := range g.Signals {
		if g.Input[sig] {
			continue
		}
		regs := ix.RegionsOf(sig)
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
