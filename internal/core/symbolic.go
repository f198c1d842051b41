package core

import (
	"fmt"

	"repro/internal/bdd"
	"repro/internal/cube"
	"repro/internal/sg"
)

// This file is the symbolic half of the analysis engine abstraction: the
// Monotonous Cover theory evaluated over BDD-represented state sets
// instead of enumerated states. A SymSpace is any symbolic state space:
// stg.SymbolicSpace answers over the net's markings without ever
// materializing them, which carries analysis past the explicit state
// limit. Every check here is existence-only: it decides whether a cover
// or a violation exists without constructing witness cubes or state
// lists.

// SymSpace is the narrow view of a symbolic state space the Monotonous
// Cover theory needs. All state sets are BDDs over StateVars() in the
// space's Manager; every set-valued method confines its result to the
// reachable set.
type SymSpace interface {
	Manager() *bdd.Manager
	StateVars() []int // current-state variables, indexed by entity (not necessarily sorted)
	ReachedBDD() int
	NumSignals() int
	SignalName(sig int) string
	IsInput(sig int) bool
	// ValueBDD returns the reachable states where signal sig reads v.
	ValueBDD(sig int, v bool) int
	// ExcitedBDD returns the reachable states with a (sig, d) transition
	// enabled, d ∈ {+1, −1}.
	ExcitedBDD(sig, d int) int
	// ImageBDD / PreimageBDD step the transition relation once, forward
	// or backward, within the reachable set.
	ImageBDD(S int) int
	PreimageBDD(S int) int
	// ImageBySignalBDD steps forward through (sig, d) transitions only.
	ImageBySignalBDD(S, sig, d int) int
}

// SymRegion is one excitation or quiescent region as a BDD state set.
type SymRegion struct {
	Signal int
	Dir    sg.Dir
	Index  int // 1-based, in decomposition order
	Set    int // BDD over the space's state vars
}

// SymRegions is the region decomposition of one signal, mirroring
// sg.Regions: alternating excitation and quiescent regions plus the
// ER → following-QR association.
type SymRegions struct {
	Signal  int
	ER      []*SymRegion
	QR      []*SymRegion
	QRAfter []int
}

// symComponents splits the state set into maximal weakly connected
// components: closure of a seed state under forward and backward images
// restricted to the set, repeated until the set is exhausted. Seeds are
// the lexicographically smallest state of the remainder, so the
// decomposition order is deterministic (though not necessarily the
// explicit engine's discovery order — differential tests compare the
// component sets, not their indices).
func symComponents(sp SymSpace, set int) []int {
	m := sp.Manager()
	vars := sp.StateVars()
	var comps []int
	for set != bdd.False {
		seed := minState(m, set, vars)
		comp := seed
		for {
			grown := m.Or(comp, m.And(sp.ImageBDD(comp), set))
			grown = m.Or(grown, m.And(sp.PreimageBDD(comp), set))
			if grown == comp {
				break
			}
			comp = grown
		}
		comps = append(comps, comp)
		set = m.Diff(set, comp)
	}
	return comps
}

// minState extracts the lexicographically smallest state of a non-empty
// set as a minterm BDD.
func minState(m *bdd.Manager, set int, vars []int) int {
	lits := make(map[int]bool, len(vars))
	m.ForEachSat(set, vars, func(assign []bool) bool {
		for i, v := range vars {
			lits[v] = assign[i]
		}
		return false // first assignment = lexicographic minimum
	})
	return m.Cube(lits)
}

// SymRegionsOf decomposes signal sig's excitation and quiescent regions
// symbolically (Definitions 5 and 6 over BDD sets). The space's values
// must be available (for stg.SymbolicSpace: ComputeValues first).
func SymRegionsOf(sp SymSpace, sig int) *SymRegions {
	m := sp.Manager()
	erPlus := sp.ExcitedBDD(sig, +1)
	erMinus := sp.ExcitedBDD(sig, -1)
	qr1 := m.Diff(sp.ValueBDD(sig, true), erMinus)
	qr0 := m.Diff(sp.ValueBDD(sig, false), erPlus)
	res := &SymRegions{Signal: sig}
	for _, part := range []struct {
		set  int
		dir  sg.Dir
		isQR bool
	}{
		{erPlus, sg.Plus, false},
		{erMinus, sg.Minus, false},
		{qr1, sg.Plus, true}, // QR(+a): stable at 1 after an up transition
		{qr0, sg.Minus, true},
	} {
		idx := 0
		for _, comp := range symComponents(sp, part.set) {
			idx++
			r := &SymRegion{Signal: sig, Dir: part.dir, Index: idx, Set: comp}
			if part.isQR {
				res.QR = append(res.QR, r)
			} else {
				res.ER = append(res.ER, r)
			}
		}
	}
	res.QRAfter = make([]int, len(res.ER))
	for i, er := range res.ER {
		res.QRAfter[i] = -1
		succ := sp.ImageBySignalBDD(er.Set, sig, int(er.Dir))
		for j, qr := range res.QR {
			if qr.Dir == er.Dir && m.And(qr.Set, succ) != bdd.False {
				res.QRAfter[i] = j
				break
			}
		}
	}
	return res
}

// symCoverCube derives the canonical cover cube of a symbolic excitation
// region (Definition 15 / Lemma 3): one literal per signal ordered with
// respect to the region, at the signal's constant value inside it. The
// literals come out in signal order, exactly like Analyzer.CoverCube.
func symCoverCube(sp SymSpace, er *SymRegion) cube.Cube {
	m := sp.Manager()
	n := sp.NumSignals()
	c := cube.NewFull(n)
	for b := 0; b < n; b++ {
		if b == er.Signal {
			continue
		}
		excited := m.Or(sp.ExcitedBDD(b, +1), sp.ExcitedBDD(b, -1))
		if m.And(excited, er.Set) != bdd.False {
			continue // b fires inside the region: not ordered
		}
		// Ordered ⇒ constant over the weakly connected region.
		if m.Diff(er.Set, sp.ValueBDD(b, true)) == bdd.False {
			c.Set(b, cube.One)
		} else {
			c.Set(b, cube.Zero)
		}
	}
	return c
}

// symCovered returns the BDD of reachable states covered by cube c: the
// intersection of the value sets of its literals.
func symCovered(sp SymSpace, c cube.Cube) int {
	m := sp.Manager()
	s := sp.ReachedBDD()
	for _, b := range c.Literals() {
		s = m.And(s, sp.ValueBDD(b, c.Get(b) == cube.One))
	}
	return s
}

// SymMCViolation is the symbolic, existence-only Monotonous Cover check
// for one excitation region: it reports whether the region has NO
// monotonous cover. It runs Analyzer.search's forced-drop closure on
// state sets, so its verdict matches the explicit engine's on
// corresponding regions: from the canonical cube, every literal that
// the source of a rising edge inside the CFR disagrees with is dropped
// until no edge rises, and the result is a cover exactly when it covers
// nothing reachable outside the CFR.
func SymMCViolation(sp SymSpace, regs *SymRegions, i int) bool {
	m := sp.Manager()
	er := regs.ER[i]
	cfr := er.Set
	if j := regs.QRAfter[i]; j >= 0 {
		cfr = m.Or(cfr, regs.QR[j].Set)
	}
	c := symCoverCube(sp, er)
	covered := symCovered(sp, c)
	if m.Diff(er.Set, covered) != bdd.False {
		return true // condition (1) fails for the cube as it stands
	}
	for {
		sources := m.And(m.Diff(cfr, covered), sp.PreimageBDD(m.And(cfr, covered)))
		if sources == bdd.False {
			return m.And(m.Diff(sp.ReachedBDD(), cfr), covered) != bdd.False
		}
		for _, b := range c.Literals() {
			if m.And(sources, sp.ValueBDD(b, c.Get(b) != cube.One)) != bdd.False {
				c.Set(b, cube.Full)
			}
		}
		covered = symCovered(sp, c)
	}
}

// SymMCSummary runs the existence-only MC check over every excitation
// region of every non-input signal and returns the labels of regions
// without a monotonous cover. It does not apply the shared-cube or wire
// fallbacks of the explicit checker — it answers "which regions need
// more than a private cube", which is the question the analysis-only
// engine path reports.
func SymMCSummary(sp SymSpace) ([]string, error) {
	var out []string
	for sig := 0; sig < sp.NumSignals(); sig++ {
		if sp.IsInput(sig) {
			continue
		}
		regs := SymRegionsOf(sp, sig)
		for i, er := range regs.ER {
			if SymMCViolation(sp, regs, i) {
				out = append(out, fmt.Sprintf("ER(%s%s,%d)", er.Dir, sp.SignalName(sig), er.Index))
			}
		}
	}
	return out, nil
}
