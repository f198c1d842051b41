package sg

import (
	"fmt"
	"slices"
	"sort"
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

// Detonants is the index-backed form of the graph method.
func (ix *Index) Detonants(outputsOnly bool) []Detonant {
	g := ix.G
	var out []Detonant
	for w := range g.States {
		succ := g.States[w].Succ
		for sig := range g.Signals {
			if outputsOnly && g.Input[sig] {
				continue
			}
			bit := uint64(1) << uint(sig)
			if ix.excited[w]&bit != 0 {
				continue
			}
			var hits []Edge
			for _, e := range succ {
				if e.Signal != sig && ix.excited[e.To]&bit != 0 {
					hits = append(hits, e)
				}
			}
			for i := 0; i < len(hits); i++ {
				for j := i + 1; j < len(hits); j++ {
					// Concurrent divergence: each branch keeps the other
					// transition enabled.
					if ix.Excited(hits[i].To, hits[j].Signal) && ix.Excited(hits[j].To, hits[i].Signal) {
						out = append(out, Detonant{State: w, Signal: sig, U: hits[i].To, V: hits[j].To})
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

// CSCViolations is the index-backed form of the graph method.
func (ix *Index) CSCViolations() []CSCViolation {
	g := ix.G
	byCode := make(map[uint64][]int)
	for s := range g.States {
		byCode[g.States[s].Code] = append(byCode[g.States[s].Code], s)
	}
	var out []CSCViolation
	codes := make([]uint64, 0, len(byCode))
	for c := range byCode { //reprolint:ordered keys collected then sorted on the next line
		codes = append(codes, c)
	}
	sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
	for _, c := range codes {
		states := byCode[c]
		for i := 0; i < len(states); i++ {
			for j := i + 1; j < len(states); j++ {
				if ix.excOut[states[i]] != ix.excOut[states[j]] {
					out = append(out, CSCViolation{A: states[i], B: states[j]})
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
func (g *Graph) USC() bool {
	seen := make(map[uint64]bool, len(g.States))
	for s := range g.States {
		if seen[g.States[s].Code] {
			return false
		}
		seen[g.States[s].Code] = true
	}
	return true
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
	conf := ix.Conflicts()
	dets := ix.Detonants(false)
	rep := PropertyReport{
		Consistent:    g.CheckConsistency() == nil,
		Persistent:    len(t.PersistencyViolations()) == 0,
		CSC:           len(ix.CSCViolations()) == 0,
		USC:           g.USC(),
		Detonants:     len(dets),
		States:        len(g.States),
		UniqueEntryOK: true,
	}
	rep.SemiModular = len(conf) == 0
	internal := 0
	for _, c := range conf {
		if c.Internal {
			internal++
		}
	}
	rep.InternalConflicts = internal
	rep.InputConflicts = len(conf) - internal
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
