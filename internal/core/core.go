// Package core implements the paper's central contribution: the
// Monotonous Cover (MC) theory for speed-independent implementation of
// state graphs with basic gates (Sections IV and VI).
//
// For every excitation region ER(*a_i) of a non-input signal the theory
// asks for a single cube — the monotonous cover cube — that
//
//  1. covers every state of ER(*a_i),
//  2. changes value at most once along any trace inside the constant
//     function region CFR(*a_i) = ER(*a_i) ∪ QR(*a_i), and
//  3. covers no reachable state outside CFR(*a_i).
//
// When every non-input excitation region has such a cube (the MC
// requirement, Definition 18), the standard C-element and RS-latch
// implementations built from those cubes are semi-modular and therefore
// hazard-free under the unbounded gate delay model (Theorem 3). The MC
// requirement also implies Complete State Coding and persistency
// (Theorem 4, Corollary 1).
package core

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/cube"
	"repro/internal/sg"
)

// Analyzer caches the region decomposition and dense index of one state
// graph and answers Monotonous Cover queries against it, one signal at
// a time on the calling goroutine. CheckGraph and CountViolationsBudget
// work in the analyzer's buffers, so only one goroutine at a time may
// call them. Cover derivation — ExcitationFunctions, ShareOptimize,
// CheckGeneralizedMC, FindMC and CheckMC — touches no buffer and, on an
// eager analyzer (NewAnalyzer, NewAnalyzerFrom), writes nothing, so it
// is safe for concurrent use: the server's netlist stages share one
// repair result's Report.A.
type Analyzer struct {
	G    *sg.Graph
	Idx  *sg.Index     // dense excitation/successor index of G
	Regs []*sg.Regions // indexed by signal

	// The reusable buffers of CheckGraph and CountViolationsBudget:
	// the scan order, the CFR of hasMC, the failed flags of checkSignal
	// and countSignal, and the sets and regions of a grouped target.
	order    []int
	cfrBuf   sg.StateSet
	failBuf  []bool
	groupBuf sg.StateSet
	groupCFR []cfrOf

	// arena, set by Reset, holds the lazily decomposed regions; nil
	// decomposes each signal into memory of its own.
	arena *sg.RegionArena
}

// NewAnalyzer builds an analyzer over g's region table: the dense
// index and the region decomposition of every signal.
func NewAnalyzer(g *sg.Graph) *Analyzer { return NewAnalyzerFrom(sg.NewRegionTable(g)) }

// NewAnalyzerFrom builds an analyzer over a graph's region table
// instead of decomposing the graph again: its Regs hold the table's
// own *sg.Regions. The analyzer copies the table's signal slice and
// never writes to the table, so analyzers on one shared table may run
// concurrently.
func NewAnalyzerFrom(t *sg.RegionTable) *Analyzer {
	return &Analyzer{G: t.Idx.G, Idx: t.Idx, Regs: slices.Clone(t.Regs)}
}

// NewAnalyzerLazy builds an analyzer that decomposes a signal's
// regions on first use instead of up front. Budgeted scoring
// over throwaway candidate graphs usually inspects only a few signals
// before hitting its budget, so the eager whole-graph decomposition is
// mostly wasted there. It takes the graph's index, which the scorer
// has already built for its semi-modularity check. Lazy analyzers are
// not safe for concurrent use.
func NewAnalyzerLazy(ix *sg.Index) *Analyzer {
	return &Analyzer{G: ix.G, Idx: ix, Regs: make([]*sg.Regions, ix.G.NumSignals())}
}

// Reset turns a into a lazy analyzer of ix's graph, like the one
// NewAnalyzerLazy builds, but keeps a's buffers: a caller scoring graph
// after graph through one analyzer stops allocating once they fit its
// largest graph. Regions are decomposed into an arena the analyzer
// owns, so every *sg.Regions and *sg.Region it handed out before Reset
// is invalid after it.
func (a *Analyzer) Reset(ix *sg.Index) {
	if a.arena == nil {
		a.arena = new(sg.RegionArena)
	}
	a.arena.Reset()
	n := ix.G.NumSignals()
	if cap(a.Regs) < n {
		a.Regs = make([]*sg.Regions, n)
	}
	a.Regs = a.Regs[:n]
	clear(a.Regs)
	a.G, a.Idx = ix.G, ix
}

// regs returns signal sig's region decomposition, computing it on
// demand. Every internal consumer goes through this accessor so lazy
// analyzers work on all paths; eager analyzers always hit the
// precomputed entry, which keeps concurrent cover derivation free of
// writes.
func (a *Analyzer) regs(sig int) *sg.Regions {
	if r := a.Regs[sig]; r != nil {
		return r
	}
	r := a.Idx.RegionsIn(sig, a.arena)
	a.Regs[sig] = r
	return r
}

// mask is a cube over the graph's signals as a (care, val) pair: bit b
// of care is set when the cube has a literal on signal b, and bit b of
// val is that literal's value. The cube covers a state exactly when
// code&care == val, one word-wide test, because a state graph has at
// most 64 signals. An empty literal sets its val bit outside care, so
// a cube holding one covers nothing.
type mask struct{ care, val uint64 }

func (m mask) covers(code uint64) bool { return code&m.care == m.val }

// drop returns m without the literals in lits.
func (m mask) drop(lits uint64) mask { return mask{m.care &^ lits, m.val &^ lits} }

// supercube returns the smallest mask covering both m and o: the
// literals they share.
func (m mask) supercube(o mask) mask {
	care := m.care & o.care &^ (m.val ^ o.val)
	return mask{care, m.val & care}
}

// toCube converts m to a cube over n signals.
func (m mask) toCube(n int) cube.Cube {
	c := cube.NewFull(n)
	for l := m.care; l != 0; l &= l - 1 {
		b := bits.TrailingZeros64(l)
		if m.val>>uint(b)&1 == 1 {
			c.Set(b, cube.One)
		} else {
			c.Set(b, cube.Zero)
		}
	}
	return c
}

// maskOf converts cube c, which must be over at most 64 signals.
func maskOf(c cube.Cube) mask {
	var m mask
	for b := 0; b < c.N(); b++ {
		bit := uint64(1) << uint(b)
		switch c.Get(b) {
		case cube.One:
			m.care |= bit
			m.val |= bit
		case cube.Zero:
			m.care |= bit
		case cube.Empty:
			m.val |= bit
		}
	}
	return m
}

// code returns the binary code of state s.
func (a *Analyzer) code(s int) uint64 { return a.G.States[s].Code }

// signals returns the mask with one bit per signal of the graph. A
// variable shift by 64 yields 0, so it is all ones at 64 signals.
func (a *Analyzer) signals() uint64 { return uint64(1)<<uint(a.G.NumSignals()) - 1 }

// MintermCube returns the full minterm cube of state s.
func (a *Analyzer) MintermCube(s int) cube.Cube {
	return mask{a.signals(), a.code(s)}.toCube(a.G.NumSignals())
}

// CoverCube derives the canonical cover cube of the excitation region
// (Definition 15, computed as in Lemma 3): one literal for every signal
// ordered with respect to the region, at the signal's (constant) value
// inside the region. It is the smallest cover cube; every other cover
// cube is obtained by dropping literals from it.
func (a *Analyzer) CoverCube(er *sg.Region) cube.Cube {
	return a.coverMask(er).toCube(a.G.NumSignals())
}

// coverMask is CoverCube as a mask. The ordered signals (Definition 11)
// are those excited in no state of the region, so one OR over the
// region's excitation masks finds them all.
func (a *Analyzer) coverMask(er *sg.Region) mask {
	var excited uint64
	for _, s := range er.States {
		excited |= a.Idx.ExcitedMask(s)
	}
	care := a.signals() &^ excited &^ (1 << uint(er.Signal))
	return mask{care, a.code(er.States[0]) & care}
}

// Sets of Definition 13 for signal a:
//
//	0-set(a)  = ∪ QR(−a_i): a stable at 0,
//	0*set(a)  = ∪ ER(+a_i): a excited at 0,
//	1-set(a)  = ∪ QR(+a_i): a stable at 1,
//	1*set(a)  = ∪ ER(−a_i): a excited at 1.
type Sets struct {
	Zero, ZeroStar, One, OneStar sg.StateSet
}

// SetsOf computes the four characteristic state sets of signal sig.
func (a *Analyzer) SetsOf(sig int) Sets {
	n := a.G.NumStates()
	s := Sets{
		Zero:     sg.NewStateSet(n),
		ZeroStar: sg.NewStateSet(n),
		One:      sg.NewStateSet(n),
		OneStar:  sg.NewStateSet(n),
	}
	regs := a.regs(sig)
	for _, er := range regs.ER {
		dst := s.ZeroStar
		if er.Dir == sg.Minus {
			dst = s.OneStar
		}
		dst.UnionWith(er.Set())
	}
	for _, qr := range regs.QR {
		// QR(+a): a stable at 1; QR(−a): a stable at 0.
		dst := s.One
		if qr.Dir == sg.Minus {
			dst = s.Zero
		}
		dst.UnionWith(qr.Set())
	}
	return s
}

// ViolationKind classifies why a cube fails to be a monotonous cover.
type ViolationKind int

// Violation kinds.
const (
	// OK means no violation.
	OK ViolationKind = iota
	// NotCovering: condition (1) — the cube misses states of the ER.
	NotCovering
	// NonMonotonic: condition (2) — the cube rises again along a trace
	// inside the CFR (a 0→1 edge within the CFR).
	NonMonotonic
	// OutsideCFR: condition (3) — the cube covers a reachable state
	// outside the CFR.
	OutsideCFR
	// IncorrectCover: Definition 16 — the cube covers states where the
	// signal's excitation function must be 0 (implies OutsideCFR).
	IncorrectCover
)

// String names the violation kind.
func (k ViolationKind) String() string {
	switch k {
	case OK:
		return "ok"
	case NotCovering:
		return "does not cover ER"
	case NonMonotonic:
		return "non-monotonic inside CFR"
	case OutsideCFR:
		return "covers state outside CFR"
	case IncorrectCover:
		return "incorrect cover"
	default:
		return fmt.Sprintf("ViolationKind(%d)", int(k))
	}
}

// Violation reports a failed Monotonous Cover condition with witness
// states.
type Violation struct {
	Kind   ViolationKind
	Signal int
	ER     *sg.Region
	Cube   cube.Cube
	// States are witness states: uncovered ER states (NotCovering),
	// covered states outside the CFR (OutsideCFR/IncorrectCover), or the
	// endpoints (u, v) of a rising edge inside the CFR (NonMonotonic).
	States []int
}

// Describe renders the violation with the graph's state codes.
func (v *Violation) Describe(g *sg.Graph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s for %s, cube %s:", v.Kind, g.ERLabel(v.ER), v.Cube)
	for _, s := range v.States {
		fmt.Fprintf(&b, " s%d(%s)", s, g.CodeString(s))
	}
	return b.String()
}

// erIndex locates er inside its signal's region list.
func (a *Analyzer) erIndex(er *sg.Region) int {
	for i, r := range a.regs(er.Signal).ER {
		if r == er {
			return i
		}
	}
	panic("core: region not from this analyzer")
}

// CheckMC verifies the three Monotonous Cover conditions of Definition 17
// for cube c against excitation region er, returning nil when c is a
// monotonous cover.
func (a *Analyzer) CheckMC(er *sg.Region, c cube.Cube) *Violation {
	v := a.checkMC(er, maskOf(c), a.regs(er.Signal).CFR(a.erIndex(er)))
	if v != nil {
		v.Cube = c
	}
	return v
}

// checkMC is CheckMC on a mask, with er's CFR given; the violation it
// returns carries no Cube.
func (a *Analyzer) checkMC(er *sg.Region, m mask, cfr sg.StateSet) *Violation {
	// Condition (1): cover all ER states.
	var missed []int
	for _, s := range er.States {
		if !m.covers(a.code(s)) {
			missed = append(missed, s)
		}
	}
	if len(missed) > 0 {
		return &Violation{Kind: NotCovering, Signal: er.Signal, ER: er, States: missed}
	}

	// Condition (2): the cube changes at most once along any trace inside
	// the CFR. Since the cube is 1 on the whole excitation region (the
	// entry of every trace), "at most once" means the cube may only FALL
	// inside the CFR: any rising edge within the CFR is a second change
	// for some trace — and, at the gate level, an AND-gate rise that no
	// latch acknowledges, which a later input can disable (this exact
	// hazard is reproduced in the verifier tests).
	if u, v := a.rise(cfr, m); u >= 0 {
		return &Violation{Kind: NonMonotonic, Signal: er.Signal, ER: er, States: []int{u, v}}
	}

	// Condition (3): cover no reachable state outside the CFR.
	var outside []int
	for s := a.outside(cfr, m, 0); s >= 0; s = a.outside(cfr, m, s+1) {
		outside = append(outside, s)
	}
	if len(outside) > 0 {
		return &Violation{Kind: OutsideCFR, Signal: er.Signal, ER: er, States: outside}
	}
	return nil
}

// rise looks for a monotonicity violation of m inside the CFR: a rising
// edge (uncovered → covered) between CFR states. It returns the first
// such edge's endpoints in state order, or (-1, -1) when m only falls.
func (a *Analyzer) rise(cfr sg.StateSet, m mask) (int, int) {
	states := a.G.States
	for w, word := range cfr {
		for ; word != 0; word &= word - 1 {
			s := w<<6 | bits.TrailingZeros64(word)
			if m.covers(states[s].Code) {
				continue
			}
			for _, e := range states[s].Succ {
				if cfr.Has(e.To) && m.covers(states[e.To].Code) {
					return s, e.To
				}
			}
		}
	}
	return -1, -1
}

// outside returns the first state from s = from on that m covers
// outside set, or -1.
func (a *Analyzer) outside(set sg.StateSet, m mask, from int) int {
	for s := from; s < len(a.G.States); s++ {
		if m.covers(a.code(s)) && !set.Has(s) {
			return s
		}
	}
	return -1
}

// forbidden reports whether state s lies where signal sig's up- (or,
// with up false, down-) excitation function must be 0: for an
// up-region, sig excited at 1 or stable at 0 (1*-set ∪ 0-set,
// Definition 13); dually for a down-region. The test reads the state's
// value and excitation bit, so no characteristic set is materialized.
func (a *Analyzer) forbidden(s, sig int, up bool) bool {
	return (a.code(s)>>uint(sig)&1 == a.Idx.ExcitedMask(s)>>uint(sig)&1) == up
}

// incorrect returns the first state from s = from on that m covers and
// that is forbidden for the regions of signal sig with direction dir
// (Definition 16), or -1.
func (a *Analyzer) incorrect(sig int, dir sg.Dir, m mask, from int) int {
	for s := from; s < len(a.G.States); s++ {
		if m.covers(a.code(s)) && a.forbidden(s, sig, dir == sg.Plus) {
			return s
		}
	}
	return -1
}

// CheckCorrectCover verifies Definition 16: the cube must not cover any
// state where the excitation function of the region's signal has value 0
// — for an up-region, 1*-set(a) ∪ 0-set(a); for a down-region,
// 0*-set(a) ∪ 1-set(a).
func (a *Analyzer) CheckCorrectCover(er *sg.Region, c cube.Cube) *Violation {
	m := maskOf(c)
	var bad []int
	for s := a.incorrect(er.Signal, er.Dir, m, 0); s >= 0; s = a.incorrect(er.Signal, er.Dir, m, s+1) {
		bad = append(bad, s)
	}
	if len(bad) > 0 {
		return &Violation{Kind: IncorrectCover, Signal: er.Signal, ER: er, Cube: c, States: bad}
	}
	return nil
}

// target is what a cover search must satisfy: the excitation regions
// to cover, each with its CFR, and the union of those CFRs. One region
// makes the search Definition 17's; several regions of one signal and
// direction make it Definition 19's, whose correct-cover premise
// (Definition 16) then follows from condition (3), since the signal's
// forbidden states all lie outside the union.
type target struct {
	regions []cfrOf
	union   sg.StateSet
}

// cfrOf is one excitation region of a target with its CFR.
type cfrOf struct {
	er  *sg.Region
	cfr sg.StateSet
}

// targetOf is the target of one excitation region with CFR cfr.
func targetOf(er *sg.Region, cfr sg.StateSet) target {
	return target{regions: []cfrOf{{er, cfr}}, union: cfr}
}

// checkMCFast reports whether m, which must cover every region of t
// (any enlargement of a cover does), also meets conditions (2) and
// (3): the verdict on every literal drop shrink tries.
//
//reprolint:hotpath
func (a *Analyzer) checkMCFast(t *target, m mask) bool {
	return a.firstRise(t, m) < 0 && a.outside(t.union, m, 0) < 0
}

// firstRise returns the source of a rising edge of m inside one of t's
// CFRs (a condition-(2) failure), or -1 when m rises in none.
func (a *Analyzer) firstRise(t *target, m mask) int {
	for _, r := range t.regions {
		if u, _ := a.rise(r.cfr, m); u >= 0 {
			return u
		}
	}
	return -1
}

// search looks for a cover of t among m, the canonical (smallest)
// candidate, and the masks made by dropping some of m's literals; it
// returns the one that drops the fewest. Condition (1) holds for a
// canonical cube, whose ordered signals are constant on its region; a
// mask that misses a region state is rejected as it stands. A rising
// edge u → v inside a CFR, from an uncovered state to a covered one,
// survives in every enlargement that keeps a literal u disagrees with,
// so a cover must drop all of them; dropping them can expose new
// rising edges, so the search repeats until none is left. Every cover
// drops a superset of what this forced, and enlarging a cube only
// worsens condition (3), so the result is a cover exactly when it
// covers nothing outside the CFRs. (The first cover of an enumeration
// of literal subsets by size is the same mask.)
func (a *Analyzer) search(t *target, m mask) (mask, bool) {
	for _, r := range t.regions {
		for _, s := range r.er.States {
			if !m.covers(a.code(s)) {
				return mask{}, false
			}
		}
	}
	for {
		u := a.firstRise(t, m)
		if u < 0 {
			return m, a.outside(t.union, m, 0) < 0
		}
		m = m.drop((a.code(u) ^ m.val) & m.care)
	}
}

// shrink greedily removes literals from a cover of t while it stays
// one, mirroring the two-level optimization the paper applies to the
// excitation functions (fewer literals, smaller AND gates).
func (a *Analyzer) shrink(t *target, m mask) mask {
	for {
		dropped := false
		for l := m.care; l != 0; l &= l - 1 {
			if cand := m.drop(l & -l); a.checkMCFast(t, cand) {
				m = cand
				dropped = true
			}
		}
		if !dropped {
			return m
		}
	}
}

// FindMC searches for a monotonous cover cube for er. The canonical
// cover cube is the smallest candidate; when it violates condition (2),
// dropping literals can restore monotonicity at the risk of breaking
// condition (3), so the search drops the fewest literals that can
// (search). It returns the found cube, shrunk, or the blocking
// violation of the canonical cube.
func (a *Analyzer) FindMC(er *sg.Region) (cube.Cube, *Violation) {
	n := a.G.NumSignals()
	cfr := a.regs(er.Signal).CFR(a.erIndex(er))
	t := targetOf(er, cfr)
	m := a.coverMask(er)
	if found, ok := a.search(&t, m); ok {
		return a.shrink(&t, found).toCube(n), nil
	}
	v := a.checkMC(er, m, cfr)
	v.Cube = m.toCube(n)
	return cube.Cube{}, v
}

// hasMC is the existence-only twin of FindMC for the i-th excitation
// region of regs: a cover exists iff FindMC returns a nil violation —
// shrinking never changes that — but no cube is built or shrunk. The
// budgeted candidate scorer calls it thousands of times per repair
// round.
func (a *Analyzer) hasMC(regs *sg.Regions, i int) bool {
	a.cfrBuf = sized(a.cfrBuf, len(regs.ER[i].Set()))
	t := targetOf(regs.ER[i], regs.CFRInto(i, a.cfrBuf))
	_, ok := a.search(&t, a.coverMask(regs.ER[i]))
	return ok
}

// RegionResult is the MC verdict for one excitation region.
type RegionResult struct {
	Signal    int
	ER        *sg.Region
	Cube      cube.Cube // valid when Violation == nil
	Violation *Violation

	// Degenerate marks the paper's degenerate case (Section IV, note 2):
	// the signal's whole excitation function is a single literal, so the
	// AND and OR gates disappear and a correct cover suffices in place
	// of a monotonous one (here: the signal is a wire of another signal).
	Degenerate bool
}

// Wire describes the degenerate single-literal implementation of a
// signal: out follows Of (inverted when Inverted is set), with no AND/OR
// logic at all.
type Wire struct {
	Of       int
	Inverted bool
}

// WireOf checks whether non-input signal sig can be implemented as a
// plain wire of another signal b: the literal b (resp. b') covers every
// ER(+sig) correctly and the literal b' (resp. b) covers every ER(−sig)
// correctly. It returns the wire description and true on success.
//
// Monotonicity is waived in this degenerate case, so only Definition
// 16 and condition (1) remain, and both are tested for every b at once:
// plain and inverted hold the signals whose literal pair is still a
// candidate, and each ER state, then each forbidden state, clears the
// signals whose value there rules the pair out. The ER states reject
// most pairs, and the scan over all states stops once none is left.
func (a *Analyzer) WireOf(sig int) (Wire, bool) {
	regs := a.regs(sig)
	if len(regs.ER) == 0 {
		return Wire{}, false
	}
	cand := a.signals() &^ (1 << uint(sig))
	plain, inverted := cand, cand
	hasUp, hasDown := false, false
	// Condition (1): b must be 1 on every ER(+sig) state and 0 on every
	// ER(−sig) state (inverted: the other way round).
	for _, er := range regs.ER {
		up := er.Dir == sg.Plus
		hasUp, hasDown = hasUp || up, hasDown || !up
		for _, s := range er.States {
			if code := a.code(s); up {
				plain, inverted = plain&code, inverted&^code
			} else {
				plain, inverted = plain&^code, inverted&code
			}
		}
	}
	// Definition 16: the up literal must be 0 on every state forbidden
	// for the up-regions, the down literal on every state forbidden for
	// the down-regions.
	for s := 0; s < a.G.NumStates() && plain|inverted != 0; s++ {
		code := a.code(s)
		if hasUp && a.forbidden(s, sig, true) {
			plain, inverted = plain&^code, inverted&code
		}
		if hasDown && a.forbidden(s, sig, false) {
			plain, inverted = plain&code, inverted&^code
		}
	}
	if plain|inverted == 0 {
		return Wire{}, false
	}
	b := bits.TrailingZeros64(plain | inverted)
	return Wire{Of: b, Inverted: plain>>uint(b)&1 == 0}, true
}

// Report is the outcome of checking the MC requirement on a whole graph.
type Report struct {
	G       *sg.Graph
	A       *Analyzer // the analyzer that produced the report
	Results []RegionResult
}

// Satisfied reports whether every non-input excitation region has a
// monotonous cover (the MC requirement, Definition 18).
func (r *Report) Satisfied() bool {
	for _, res := range r.Results {
		if res.Violation != nil {
			return false
		}
	}
	return true
}

// Violations returns the failing regions.
func (r *Report) Violations() []*Violation {
	var out []*Violation
	for _, res := range r.Results {
		if res.Violation != nil {
			out = append(out, res.Violation)
		}
	}
	return out
}

// String renders the report, one region per line.
func (r *Report) String() string {
	var b strings.Builder
	for _, res := range r.Results {
		if res.Violation == nil {
			tag := "MC cube"
			if res.Degenerate {
				tag = "degenerate (wire) cube"
			}
			fmt.Fprintf(&b, "%s: %s %s\n",
				r.G.ERLabel(res.ER), tag, res.Cube.StringNamed(r.G.Signals))
		} else {
			fmt.Fprintf(&b, "%s: VIOLATION %s\n", r.G.ERLabel(res.ER), res.Violation.Describe(r.G))
		}
	}
	return b.String()
}

// CheckGraph evaluates the MC requirement for every excitation region of
// every non-input signal, in signal order.
func (a *Analyzer) CheckGraph() *Report {
	rep := &Report{G: a.G, A: a}
	for sig := range a.G.Signals {
		if !a.G.Input[sig] {
			rep.Results = a.checkSignal(sig, rep.Results)
		}
	}
	return rep
}

// scanOrder lists the non-input signals in index order, with the hot
// names (likely violators, in the caller's priority order) moved to
// the front so a bad graph burns a budget after a couple of signals
// instead of a full sweep. Which signals get scanned can depend on the
// order, but the one thing budgeted callers consume — "did the
// violation count reach the budget, and if not, what is it exactly" —
// cannot.
//
// The order is built in the analyzer's reusable buffer: the hot names'
// non-input signals at their first mention, then the rest. A graph has
// at most 64 signals, so one mask records which are placed.
func (a *Analyzer) scanOrder(hot []string) []int {
	sigs := a.order[:0]
	var placed uint64
	for _, name := range hot {
		if sig := a.G.SignalIndex(name); sig >= 0 && !a.G.Input[sig] && placed>>uint(sig)&1 == 0 {
			placed |= 1 << uint(sig)
			sigs = append(sigs, sig)
		}
	}
	for sig := range a.G.Signals {
		if !a.G.Input[sig] && placed>>uint(sig)&1 == 0 {
			sigs = append(sigs, sig)
		}
	}
	a.order = sigs
	return sigs
}

// CountViolationsBudget counts the graph's MC-violating excitation
// regions with a branch-and-bound budget; it is the repair loop's
// candidate scorer. It scans the non-input signals, hot names first
// (scanOrder), and stops once the count reaches budget (budget <= 0
// means no bound). The count is exact below budget and
// means "at least budget" otherwise, which is all a scorer needs to
// discard a candidate against an incumbent with fewer violations. Each
// signal gets the same verdict as in CheckGraph, but no report is
// assembled and the success-path cube shrinking is skipped, since
// greedy literal dropping can never turn a found cover into a
// violation (or vice versa).
func (a *Analyzer) CountViolationsBudget(budget int, hot ...string) int {
	violations := 0
	for _, sig := range a.scanOrder(hot) {
		violations += a.countSignal(sig)
		if budget > 0 && violations >= budget {
			break
		}
	}
	return violations
}

// countSignal is checkSignal minus everything that only affects cube
// quality: each region gets an existence-only MC verdict, and the
// grouped and degenerate fallbacks run exactly as in checkSignal (the
// grouped path keeps its internal shrinking because the shared cube's
// footprint feeds the Theorem-5 side condition).
func (a *Analyzer) countSignal(sig int) int {
	regs := a.regs(sig)
	a.failBuf = sized(a.failBuf, len(regs.ER))
	failed := a.failBuf
	anyFailed := false
	for i := range regs.ER {
		failed[i] = !a.hasMC(regs, i)
		anyFailed = anyFailed || failed[i]
	}
	if !anyFailed || a.groupSameFunction(sig, failed, nil) {
		return 0
	}
	if _, ok := a.WireOf(sig); ok {
		return 0
	}
	n := 0
	for _, f := range failed {
		if f {
			n++
		}
	}
	return n
}

// checkSignal appends to results the MC verdict of every excitation
// region of one signal, including the shared-cube and degenerate
// fallbacks.
func (a *Analyzer) checkSignal(sig int, results []RegionResult) []RegionResult {
	n := a.G.NumSignals()
	ers := a.regs(sig).ER
	a.failBuf = sized(a.failBuf, len(ers))
	failed := a.failBuf
	anyFailed := false
	for i, er := range ers {
		c, v := a.FindMC(er)
		results = append(results, RegionResult{Signal: sig, ER: er, Cube: c, Violation: v})
		failed[i] = v != nil
		anyFailed = anyFailed || failed[i]
	}
	own := results[len(results)-len(ers):]
	if anyFailed {
		// Multiple transitions of one signal may share a single cube
		// (Definition 19 with F a set of same-signal transitions):
		// e.g. two excitation regions with identical codes in
		// alternative branches. Try a generalized cube over all
		// regions of the same direction.
		anyFailed = !a.groupSameFunction(sig, failed, func(i int, m mask) {
			own[i].Cube = m.toCube(n)
			own[i].Violation = nil
		})
	}
	if anyFailed {
		// Degenerate fallback: the whole signal as a single-literal
		// wire needs only correct covers (Section IV, note 2).
		if w, ok := a.WireOf(sig); ok {
			for i := range own {
				c := cube.NewFull(n)
				lit := cube.One
				if (own[i].ER.Dir == sg.Plus) == w.Inverted {
					lit = cube.Zero
				}
				c.Set(w.Of, lit)
				own[i].Cube = c
				own[i].Violation = nil
				own[i].Degenerate = true
			}
		}
	}
	return results
}

// groupSameFunction attempts to repair the failed regions of one signal
// (failed is indexed like the signal's ERs) by covering groups of
// same-direction regions with one generalized MC cube. The candidate
// groups are all regions of a direction, then only its failed ones.
// For every group it accepts it clears failed and, when cover is not
// nil, calls cover with each member's index and the shared cube; it
// reports whether no region is left failed. It builds its targets in
// the analyzer's buffers.
//
// Most groups fail because their supercube is not even a correct cover
// (Definition 16), so that test runs first, before any CFR is built.
func (a *Analyzer) groupSameFunction(sig int, failed []bool, cover func(i int, m mask)) bool {
	regs := a.regs(sig)
	for _, dir := range []sg.Dir{sg.Plus, sg.Minus} {
		same, nfailed := 0, 0
		for i, er := range regs.ER {
			if er.Dir == dir {
				same++
				if failed[i] {
					nfailed++
				}
			}
		}
		if nfailed == 0 || same < 2 {
			continue
		}
		for _, failedOnly := range []bool{false, true} {
			if failedOnly && (nfailed < 2 || nfailed == same) {
				continue
			}
			in := func(i int) bool { return regs.ER[i].Dir == dir && (!failedOnly || failed[i]) }
			var sup mask
			first := true
			for i, er := range regs.ER {
				if in(i) {
					if m := a.coverMask(er); first {
						sup, first = m, false
					} else {
						sup = sup.supercube(m)
					}
				}
			}
			if a.incorrect(sig, dir, sup, 0) >= 0 {
				continue
			}
			t := a.groupTarget(regs, in)
			found, ok := a.search(&t, sup)
			if !ok {
				continue
			}
			c := a.shrink(&t, found)
			// Theorem 5 side condition within the signal: the shared
			// cube must not touch the same-direction regions outside
			// the group.
			touches := false
			for i, er := range regs.ER {
				if er.Dir != dir || in(i) {
					continue
				}
				for _, s := range er.States {
					if c.covers(a.code(s)) {
						touches = true
						break
					}
				}
			}
			if touches {
				continue
			}
			for i := range regs.ER {
				if in(i) {
					failed[i] = false
					if cover != nil {
						cover(i, c)
					}
				}
			}
			break
		}
	}
	return !slices.Contains(failed, true)
}

// groupTarget is the target of the excitation regions of regs selected
// by in, with the union and the CFRs carved from the analyzer's
// reusable buffers.
func (a *Analyzer) groupTarget(regs *sg.Regions, in func(i int) bool) target {
	words := (a.G.NumStates() + 63) / 64
	a.groupBuf = sized(a.groupBuf, (len(regs.ER)+1)*words)
	buf := a.groupBuf
	clear(buf[:words])
	t := target{regions: a.groupCFR[:0], union: buf[:words:words]}
	for i, er := range regs.ER {
		if in(i) {
			buf = buf[words:]
			cfr := regs.CFRInto(i, buf[:words:words])
			t.regions = append(t.regions, cfrOf{er, cfr})
			t.union.UnionWith(cfr)
		}
	}
	a.groupCFR = t.regions
	return t
}

// sized returns buf resliced to n elements, reallocated when too short.
// The elements keep whatever the buffer held: callers overwrite them.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// ExcitationFunctions assembles the up- and down-excitation covers
// (Sa, Ra) of a non-input signal from the MC cubes of a satisfied report.
// It fails when the report has violations for that signal.
func (r *Report) ExcitationFunctions(sig int) (set, reset cube.Cover, err error) {
	n := r.G.NumSignals()
	set, reset = cube.NewCover(n), cube.NewCover(n)
	for _, res := range r.Results {
		if res.Signal != sig {
			continue
		}
		if res.Violation != nil {
			return set, reset, fmt.Errorf("core: %s has no monotonous cover", r.G.ERLabel(res.ER))
		}
		if res.ER.Dir == sg.Plus {
			set.Add(res.Cube)
		} else {
			reset.Add(res.Cube)
		}
	}
	// Distinct regions may share one cube (e.g. both ERs of a repaired
	// signal covered by the same inserted-signal literal): deduplicate.
	return set.SCC(), reset.SCC(), nil
}
