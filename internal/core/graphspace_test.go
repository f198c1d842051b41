package core

import (
	"repro/internal/bdd"
	"repro/internal/sg"
)

// GraphSpace wraps an explicit state graph as a SymSpace: states are
// encoded in interleaved current/next index bits (bit i of the state
// index lives in variable 2i, its next-state twin in 2i+1), sets of
// states are BDDs over those bits, and the transition relation is the
// union of the graph's edges. It is the bridge that lets the
// differential tests run the symbolic MC checks against an explicit
// reference graph. Value, excitation and relation BDDs are built lazily
// per signal. Not safe for concurrent use.
type GraphSpace struct {
	G  *sg.Graph
	Ix *sg.Index

	m        *bdd.Manager
	bits     int
	curVars  []int
	nextVars []int
	curCube  int
	nextCube int
	swap     bdd.Shift
	reached  int

	minterm []int   // per-state current-vars minterm, built on demand (-1 empty)
	val     [][]int // [sig][v] value sets, nil until built
	exc     [][]int // [sig][(d+1)/2] excited sets, nil until built
	rel     int     // full edge relation, -1 until built
	relSig  [][]int // [sig][(d+1)/2] per-label relations, -1 until built
}

// NewGraphSpace builds the index-bit universe for g. The graph must have
// at least one state.
func NewGraphSpace(g *sg.Graph, ix *sg.Index) *GraphSpace {
	n := g.NumStates()
	bits := 1
	for 1<<uint(bits) < n {
		bits++
	}
	m := bdd.New(2 * bits)
	sp := &GraphSpace{G: g, Ix: ix, m: m, bits: bits, rel: -1}
	perm := make([]int, 2*bits)
	for i := 0; i < bits; i++ {
		sp.curVars = append(sp.curVars, 2*i)
		sp.nextVars = append(sp.nextVars, 2*i+1)
		perm[2*i], perm[2*i+1] = 2*i+1, 2*i
	}
	sp.swap = m.NewShift(perm)
	sp.curCube = m.CubeVars(sp.curVars)
	sp.nextCube = m.CubeVars(sp.nextVars)
	sp.minterm = make([]int, n)
	for i := range sp.minterm {
		sp.minterm[i] = -1
	}
	nsig := g.NumSignals()
	sp.val = make([][]int, nsig)
	sp.exc = make([][]int, nsig)
	sp.relSig = make([][]int, nsig)
	// reached = index < n, built MSB-down. When n fills the bit width
	// exactly every pattern is a state and the comparator is trivially
	// true (the loop below would only see n's low, all-zero bits).
	if n == 1<<uint(bits) {
		sp.reached = bdd.True
	} else {
		lt := bdd.False
		prefix := bdd.True
		for i := bits - 1; i >= 0; i-- {
			if n>>uint(i)&1 == 1 {
				lt = m.Or(lt, m.And(prefix, m.NVar(2*i)))
				prefix = m.And(prefix, m.Var(2*i))
			} else {
				prefix = m.And(prefix, m.NVar(2*i))
			}
		}
		sp.reached = lt
	}
	return sp
}

// stateBDD returns (building on demand) the minterm of state s over the
// current index bits.
func (sp *GraphSpace) stateBDD(s int) int {
	if r := sp.minterm[s]; r >= 0 {
		return r
	}
	f := bdd.True
	for i := sp.bits - 1; i >= 0; i-- {
		if s>>uint(i)&1 == 1 {
			f = sp.m.And(sp.m.Var(2*i), f)
		} else {
			f = sp.m.And(sp.m.NVar(2*i), f)
		}
	}
	sp.minterm[s] = f
	return f
}

// Manager implements SymSpace.
func (sp *GraphSpace) Manager() *bdd.Manager { return sp.m }

// StateVars implements SymSpace.
func (sp *GraphSpace) StateVars() []int { return sp.curVars }

// ReachedBDD implements SymSpace.
func (sp *GraphSpace) ReachedBDD() int { return sp.reached }

// NumSignals implements SymSpace.
func (sp *GraphSpace) NumSignals() int { return sp.G.NumSignals() }

// SignalName implements SymSpace.
func (sp *GraphSpace) SignalName(sig int) string { return sp.G.Signals[sig] }

// IsInput implements SymSpace.
func (sp *GraphSpace) IsInput(sig int) bool { return sp.G.Input[sig] }

// ValueBDD implements SymSpace.
func (sp *GraphSpace) ValueBDD(sig int, v bool) int {
	if sp.val[sig] == nil {
		v0, v1 := bdd.False, bdd.False
		for s := 0; s < sp.G.NumStates(); s++ {
			if sp.G.Value(s, sig) {
				v1 = sp.m.Or(v1, sp.stateBDD(s))
			} else {
				v0 = sp.m.Or(v0, sp.stateBDD(s))
			}
		}
		sp.val[sig] = []int{v0, v1}
	}
	if v {
		return sp.val[sig][1]
	}
	return sp.val[sig][0]
}

// dirSlot maps ±1 to an array slot.
func dirSlot(d int) int {
	if d > 0 {
		return 1
	}
	return 0
}

// ExcitedBDD implements SymSpace.
func (sp *GraphSpace) ExcitedBDD(sig, d int) int {
	if sp.exc[sig] == nil {
		e := []int{bdd.False, bdd.False}
		for s := range sp.G.States {
			for _, ed := range sp.G.States[s].Succ {
				if ed.Signal == sig {
					e[dirSlot(int(ed.Dir))] = sp.m.Or(e[dirSlot(int(ed.Dir))], sp.stateBDD(s))
				}
			}
		}
		sp.exc[sig] = e
	}
	return sp.exc[sig][dirSlot(d)]
}

// edgeBDD is one edge as a relation term: cur-minterm of from ∧
// next-minterm of to.
func (sp *GraphSpace) edgeBDD(from, to int) int {
	return sp.m.And(sp.stateBDD(from), sp.m.Replace(sp.stateBDD(to), sp.swap))
}

// relation returns (building on demand) the full edge relation.
func (sp *GraphSpace) relation() int {
	if sp.rel < 0 {
		r := bdd.False
		for s := range sp.G.States {
			for _, e := range sp.G.States[s].Succ {
				r = sp.m.Or(r, sp.edgeBDD(s, e.To))
			}
		}
		sp.rel = r
	}
	return sp.rel
}

// ImageBDD implements SymSpace.
func (sp *GraphSpace) ImageBDD(S int) int {
	img := sp.m.Replace(sp.m.AndExists(S, sp.relation(), sp.curCube), sp.swap)
	return sp.m.And(img, sp.reached)
}

// PreimageBDD implements SymSpace.
func (sp *GraphSpace) PreimageBDD(S int) int {
	pre := sp.m.AndExists(sp.m.Replace(S, sp.swap), sp.relation(), sp.nextCube)
	return sp.m.And(pre, sp.reached)
}

// ImageBySignalBDD implements SymSpace.
func (sp *GraphSpace) ImageBySignalBDD(S, sig, d int) int {
	if sp.relSig[sig] == nil {
		sp.relSig[sig] = []int{-1, -1}
	}
	slot := dirSlot(d)
	if sp.relSig[sig][slot] < 0 {
		r := bdd.False
		for s := range sp.G.States {
			for _, e := range sp.G.States[s].Succ {
				if e.Signal == sig && dirSlot(int(e.Dir)) == slot {
					r = sp.m.Or(r, sp.edgeBDD(s, e.To))
				}
			}
		}
		sp.relSig[sig][slot] = r
	}
	img := sp.m.Replace(sp.m.AndExists(S, sp.relSig[sig][slot], sp.curCube), sp.swap)
	return sp.m.And(img, sp.reached)
}
