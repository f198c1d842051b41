package sg

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// Conflict records a conflict state (Definition 1): signal A is excited in
// state W, and firing signal B from W makes A stable.
type Conflict struct {
	State    int // the conflict state w
	Signal   int // the signal a that gets disabled
	By       int // the signal b whose firing disables a
	ByDir    Dir
	After    int  // the state u = δ(w, *b) where a is stable
	Internal bool // true when Signal is a non-input signal
}

// String renders the conflict in a readable diagnostic form.
func (c Conflict) Describe(g *Graph) string {
	kind := "input"
	if c.Internal {
		kind = "internal"
	}
	return fmt.Sprintf("%s conflict at s%d (%s): %s disabled by %s%s → s%d",
		kind, c.State, g.CodeString(c.State), g.Signals[c.Signal],
		g.Signals[c.By], c.ByDir, c.After)
}

// Conflicts returns all conflict states of the graph (Definition 1).
func (g *Graph) Conflicts() []Conflict {
	return NewIndex(g).Conflicts()
}

// Conflicts is the index-backed form of the graph method: the per-pair
// excitation test is a mask lookup instead of a successor-list scan.
func (ix *Index) Conflicts() []Conflict {
	g := ix.G
	var out []Conflict
	for w := range g.States {
		for _, eb := range g.States[w].Succ {
			u := eb.To
			for _, ea := range g.States[w].Succ {
				a := ea.Signal
				if a == eb.Signal {
					continue
				}
				if ix.excited[u]>>uint(a)&1 == 0 {
					out = append(out, Conflict{
						State: w, Signal: a, By: eb.Signal, ByDir: eb.Dir,
						After: u, Internal: !g.Input[a],
					})
				}
			}
		}
	}
	return out
}

// conflictCounts counts the conflicts Conflicts lists, split into
// input and internal ones, without listing them. Firing b along w → u
// disables the signals exc[w] &^ bit(b) &^ exc[u]; Conflicts lists one
// conflict per edge of w carrying a disabled signal, so at a state
// whose edges carry some signal twice the edges are counted one by
// one, and elsewhere a popcount per input and non-input half suffices.
func (ix *Index) conflictCounts() (input, internal int) {
	g := ix.G
	var inputs uint64
	for sig, in := range g.Input {
		if in {
			inputs |= 1 << uint(sig)
		}
	}
	for w := range g.States {
		succ := g.States[w].Succ
		var once, twice uint64
		for _, e := range succ {
			bit := uint64(1) << uint(e.Signal)
			twice |= once & bit
			once |= bit
		}
		for _, eb := range succ {
			off := ix.excited[w] &^ (1 << uint(eb.Signal)) &^ ix.excited[eb.To]
			if off&twice == 0 {
				input += bits.OnesCount64(off & inputs)
				internal += bits.OnesCount64(off &^ inputs)
				continue
			}
			for _, ea := range succ {
				if off>>uint(ea.Signal)&1 == 1 {
					if inputs>>uint(ea.Signal)&1 == 1 {
						input++
					} else {
						internal++
					}
				}
			}
		}
	}
	return input, internal
}

// SemiModular reports whether the graph has no conflict state at all
// (Definition 2 with respect to every reachable state).
func (g *Graph) SemiModular() bool { return len(g.Conflicts()) == 0 }

// OutputSemiModular reports whether no non-input signal is ever disabled
// (no internally conflict state). Only output semi-modular graphs can be
// implemented by speed-independent circuits.
func (g *Graph) OutputSemiModular() bool { return NewIndex(g).OutputSemiModular() }

// OutputSemiModular is the index-backed form of the graph method. It
// stops at the first internal conflict and lists none.
func (ix *Index) OutputSemiModular() bool {
	g := ix.G
	for w := range g.States {
		for _, eb := range g.States[w].Succ {
			for _, ea := range g.States[w].Succ {
				if a := ea.Signal; a != eb.Signal && !g.Input[a] && ix.excited[eb.To]>>uint(a)&1 == 0 {
					return false
				}
			}
		}
	}
	return true
}

// InternalConflicts returns only the internally conflict states.
func (g *Graph) InternalConflicts() []Conflict {
	var out []Conflict
	for _, c := range g.Conflicts() {
		if c.Internal {
			out = append(out, c)
		}
	}
	return out
}

// Detonant records a detonant state (Definition 3): signal Signal is
// stable in State but excited in two distinct direct successors.
type Detonant struct {
	State  int
	Signal int
	U, V   int // the two successors in which Signal is excited
}

// Detonants returns all detonant states of the graph with respect to
// non-input signals when outputsOnly is true, or all signals otherwise.
//
// Following Varshavsky et al., detonance captures OR-causality among
// concurrently diverging branches: the two successors u and v must be
// reached by transitions that are concurrent at w (neither disables the
// other). Alternative branches of a choice (conflict) state are mutually
// exclusive worlds and do not make the state detonant — the paper's
// Figure 1 has an input choice at its initial state and is explicitly
// stated to be detonant-free.
func (g *Graph) Detonants(outputsOnly bool) []Detonant {
	return NewIndex(g).Detonants(outputsOnly)
}

// Detonants is the index-backed form of the graph method. It first
// folds each state's successors into the signals stable in the state
// and excited in one successor (once) or in two or more (twice); only
// the signals in twice can make the state detonant, so the pair loop
// runs for those alone.
func (ix *Index) Detonants(outputsOnly bool) []Detonant {
	g := ix.G
	consider := ^uint64(0)
	if outputsOnly {
		for sig, in := range g.Input {
			if in {
				consider &^= 1 << uint(sig)
			}
		}
	}
	var out []Detonant
	for w := range g.States {
		succ := g.States[w].Succ
		var once, twice uint64
		for _, e := range succ {
			m := ix.excited[e.To] &^ ix.excited[w] & consider
			twice |= once & m
			once |= m
		}
		for ; twice != 0; twice &= twice - 1 {
			sig := bits.TrailingZeros64(twice)
			bit := uint64(1) << uint(sig)
			for i, u := range succ {
				if ix.excited[u.To]&bit == 0 {
					continue
				}
				for _, v := range succ[i+1:] {
					// Concurrent divergence: each branch keeps the other
					// transition enabled.
					if ix.excited[v.To]&bit != 0 && ix.Excited(u.To, v.Signal) && ix.Excited(v.To, u.Signal) {
						out = append(out, Detonant{State: w, Signal: sig, U: u.To, V: v.To})
					}
				}
			}
		}
	}
	return out
}

// Distributive reports whether the graph is semi-modular and free of
// detonant states (Definition 4).
func (g *Graph) Distributive() bool {
	return g.SemiModular() && len(g.Detonants(false)) == 0
}

// OutputDistributive reports whether the graph is output semi-modular and
// has no detonant states with respect to non-input signals.
func (g *Graph) OutputDistributive() bool {
	return g.OutputSemiModular() && len(g.Detonants(true)) == 0
}

// CSCViolation is a pair of states with identical binary codes but
// different excited non-input signal sets (Definition 14).
type CSCViolation struct {
	A, B int
}

// CSCViolations returns all state pairs breaking the Complete State
// Coding requirement.
func (g *Graph) CSCViolations() []CSCViolation {
	return NewIndex(g).CSCViolations()
}

// CSCViolations is the index-backed form of the graph method. Pairs
// come by ascending code, then by state: only the shared codes are
// sorted, and a code's states are listed in state order.
func (ix *Index) CSCViolations() []CSCViolation {
	g, ct := ix.G, groupCodes(ix.G)
	slices.SortFunc(ct.shared, func(a, b int32) int {
		return cmp.Compare(g.States[ct.slots[a]-1].Code, g.States[ct.slots[b]-1].Code)
	})
	var out []CSCViolation
	for _, slot := range ct.shared {
		for a := ct.slots[slot] - 1; a >= 0; a = ct.next[a] {
			for b := ct.next[a]; b >= 0; b = ct.next[b] {
				if ix.excOut[a] != ix.excOut[b] {
					out = append(out, CSCViolation{A: int(a), B: int(b)})
				}
			}
		}
	}
	return out
}

// CSC reports whether the graph satisfies Complete State Coding.
func (g *Graph) CSC() bool { return len(g.CSCViolations()) == 0 }

// USC reports whether all state codes are unique (Unique State Coding,
// strictly stronger than CSC).
func (g *Graph) USC() bool { return len(groupCodes(g).shared) == 0 }

// coding reports both state-coding verdicts from one grouping of the
// states by code: CSC, no two states of one code differ in their
// excited non-input signals, and USC, no two states share a code.
func (ix *Index) coding() (csc, usc bool) {
	ct := groupCodes(ix.G)
	csc = true
	for _, slot := range ct.shared {
		head := ct.slots[slot] - 1
		for s := ct.next[head]; s >= 0 && csc; s = ct.next[s] {
			csc = ix.excOut[s] == ix.excOut[head]
		}
	}
	return csc, len(ct.shared) == 0
}

// codeTable groups a graph's states by code. slots is an open-addressed
// table over the distinct codes holding each code's lowest state plus
// one (0 marks an empty slot); next[s] is the next state after s with
// s's code, or -1; shared lists the slots of the codes two or more
// states share, in no particular order.
type codeTable struct {
	slots, next []int32
	shared      []int32
}

// groupCodes builds g's code table in one allocation, unless codes are
// shared. It inserts the states from the last to the first, so each
// insertion prepends to its code's list and every list runs in state
// order.
func groupCodes(g *Graph) codeTable {
	n := len(g.States)
	logSize := bits.Len(uint(2 * n)) // at most half the slots fill
	size := 1 << logSize
	buf := make([]int32, size+n)
	ct := codeTable{slots: buf[:size:size], next: buf[size:]}
	mask := uint64(size - 1)
	for s := n - 1; s >= 0; s-- {
		code := g.States[s].Code
		i := code * 0x9e3779b97f4a7c15 >> uint(64-logSize) // the product's top bits
		for ct.slots[i] != 0 && g.States[ct.slots[i]-1].Code != code {
			i = (i + 1) & mask
		}
		head := ct.slots[i] - 1
		if head >= 0 && ct.next[head] < 0 {
			ct.shared = append(ct.shared, int32(i))
		}
		ct.next[s] = head
		ct.slots[i] = int32(s) + 1
	}
	return ct
}

// PropertyReport summarizes all specification-level checks for one graph.
type PropertyReport struct {
	Consistent        bool
	SemiModular       bool
	OutputSemiModular bool
	Distributive      bool
	OutputDistrib     bool
	Persistent        bool
	CSC               bool
	USC               bool
	UniqueEntryOK     bool
	InputConflicts    int
	InternalConflicts int
	Detonants         int
	States            int
}

// Check computes the full property report.
func (g *Graph) Check() PropertyReport {
	return NewRegionTable(g).Check()
}

// Check computes the full property report of the table's graph, reading
// persistency and unique entry off the table's regions.
func (t *RegionTable) Check() PropertyReport {
	ix, g := t.Idx, t.Idx.G
	inputConf, internal := ix.conflictCounts()
	dets := ix.Detonants(false)
	rep := PropertyReport{
		Consistent:    g.CheckConsistency() == nil,
		Persistent:    len(t.PersistencyViolations()) == 0,
		Detonants:     len(dets),
		States:        len(g.States),
		UniqueEntryOK: true,
	}
	rep.CSC, rep.USC = ix.coding()
	rep.SemiModular = inputConf+internal == 0
	rep.InternalConflicts = internal
	rep.InputConflicts = inputConf
	rep.OutputSemiModular = internal == 0
	rep.Distributive = rep.SemiModular && rep.Detonants == 0
	// Detonants(true) is the non-input subset of dets.
	rep.OutputDistrib = rep.OutputSemiModular &&
		!slices.ContainsFunc(dets, func(d Detonant) bool { return !g.Input[d.Signal] })
	for sig, regs := range t.Regs {
		if g.Input[sig] {
			continue
		}
		for _, er := range regs.ER {
			if !er.UniqueEntry() {
				rep.UniqueEntryOK = false
			}
		}
	}
	return rep
}

// String renders the report as a compact multi-line summary.
func (r PropertyReport) String() string {
	flag := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "states: %d\n", r.States)
	fmt.Fprintf(&b, "consistent: %s\n", flag(r.Consistent))
	fmt.Fprintf(&b, "semi-modular: %s (input conflicts: %d, internal: %d)\n",
		flag(r.SemiModular), r.InputConflicts, r.InternalConflicts)
	fmt.Fprintf(&b, "output semi-modular: %s\n", flag(r.OutputSemiModular))
	fmt.Fprintf(&b, "distributive: %s (detonants: %d)\n", flag(r.Distributive), r.Detonants)
	fmt.Fprintf(&b, "output distributive: %s\n", flag(r.OutputDistrib))
	fmt.Fprintf(&b, "persistent: %s\n", flag(r.Persistent))
	fmt.Fprintf(&b, "unique entry: %s\n", flag(r.UniqueEntryOK))
	fmt.Fprintf(&b, "CSC: %s, USC: %s", flag(r.CSC), flag(r.USC))
	return b.String()
}
