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
	"slices"
	"sort"
	"strings"

	"repro/internal/cube"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sg"
)

// Analyzer caches the region decomposition and dense index of one state
// graph and answers Monotonous Cover queries against it. Its query
// methods are safe for concurrent use once constructed.
type Analyzer struct {
	G    *sg.Graph
	Idx  *sg.Index     // dense excitation/successor index of G
	Regs []*sg.Regions // indexed by signal

	mintCubes []cube.Cube // per-state minterm cubes, for O(words) covers
	workers   int         // worker-pool bound for per-signal fan-out

	// cfrBuf, ccBuf, candBuf, litsBuf and subBuf are the reusable
	// buffers of the sequential existence-only scoring path
	// (mcViolation). The parallel fan-outs of CheckGraph never touch
	// them: they run checkSignal, which builds its cubes and CFRs per
	// call.
	cfrBuf  sg.StateSet
	ccBuf   cube.Cube
	candBuf cube.Cube
	litsBuf []int
	subBuf  []int
}

// NewAnalyzer computes the dense index and the region decomposition of
// every signal, fanning the per-signal decompositions out over
// GOMAXPROCS workers.
func NewAnalyzer(g *sg.Graph) *Analyzer { return NewAnalyzerN(g, 0) }

// NewAnalyzerN is NewAnalyzer with an explicit worker-pool bound
// (0 = GOMAXPROCS, 1 = sequential).
func NewAnalyzerN(g *sg.Graph, workers int) *Analyzer {
	ix := sg.NewIndex(g)
	regs := make([]*sg.Regions, g.NumSignals())
	workers = par.Workers(workers)
	if o := obs.Get(); o != nil {
		o.Metrics.Gauge("par_pool_size", "pool", "core.regions").Set(int64(workers))
	}
	par.ForEachHook(len(regs), workers, func(sig int) {
		regs[sig] = ix.RegionsOf(sig)
	}, obs.TaskHook("core.regions"))
	return newAnalyzer(ix, regs, workers)
}

// NewAnalyzerFrom builds an analyzer over a graph's region table
// instead of decomposing the graph again: its Regs hold the table's
// own *sg.Regions. The analyzer copies the table's signal slice and
// never writes to the table, so analyzers on one shared table may run
// concurrently. workers bounds CheckGraph's per-signal fan-out as in
// NewAnalyzerN.
func NewAnalyzerFrom(t *sg.RegionTable, workers int) *Analyzer {
	return newAnalyzer(t.Idx, slices.Clone(t.Regs), par.Workers(workers))
}

// NewAnalyzerLazy builds a sequential analyzer that decomposes a
// signal's regions on first use instead of up front. Budgeted scoring
// over throwaway candidate graphs usually inspects only a few signals
// before hitting its budget, so the eager whole-graph decomposition is
// mostly wasted there. It takes the graph's index, which the scorer
// has already built for its semi-modularity check. Lazy analyzers are
// not safe for concurrent use.
func NewAnalyzerLazy(ix *sg.Index) *Analyzer {
	return newAnalyzer(ix, make([]*sg.Regions, ix.G.NumSignals()), 1)
}

// newAnalyzer owns regs: nil entries are decomposed on first use.
func newAnalyzer(ix *sg.Index, regs []*sg.Regions, workers int) *Analyzer {
	g := ix.G
	a := &Analyzer{G: g, Idx: ix, Regs: regs, workers: workers}
	// One backing array for all minterm cubes, filled through one value
	// row: budgeted scoring builds an analyzer per candidate graph, so
	// per-state allocations would dominate the constructor's cost.
	n := g.NumSignals()
	a.mintCubes = make([]cube.Cube, g.NumStates())
	row := make([]bool, n)
	wpc := cube.WordsFor(n)
	mw := make([]uint64, g.NumStates()*wpc)
	for s := range a.mintCubes {
		for i := range row {
			row[i] = g.Value(s, i)
		}
		a.mintCubes[s] = cube.MintermInto(row, mw[s*wpc:(s+1)*wpc:(s+1)*wpc])
	}
	return a
}

// regs returns signal sig's region decomposition, computing it on
// demand. Every internal consumer goes through this accessor so lazy
// analyzers work on all paths; eager analyzers always hit the
// precomputed entry, which keeps the parallel per-signal fan-outs free
// of writes.
func (a *Analyzer) regs(sig int) *sg.Regions {
	if r := a.Regs[sig]; r != nil {
		return r
	}
	r := a.Idx.RegionsOf(sig)
	a.Regs[sig] = r
	return r
}

// MintermCube returns the full minterm cube of state s.
func (a *Analyzer) MintermCube(s int) cube.Cube { return a.mintCubes[s].Clone() }

// CoverCube derives the canonical cover cube of the excitation region
// (Definition 15, computed as in Lemma 3): one literal for every signal
// ordered with respect to the region, at the signal's (constant) value
// inside the region. It is the smallest cover cube; every other cover
// cube is obtained by dropping literals from it.
func (a *Analyzer) CoverCube(er *sg.Region) cube.Cube {
	return a.coverCubeInto(er, cube.NewFull(a.G.NumSignals()))
}

// coverCubeInto is CoverCube writing into a caller-provided cube of the
// graph's signal width, returning it for convenience.
func (a *Analyzer) coverCubeInto(er *sg.Region, c cube.Cube) cube.Cube {
	g := a.G
	c.Reset()
	ref := er.States[0]
	for b := range g.Signals {
		if b == er.Signal || !a.Idx.Ordered(er, b) {
			continue
		}
		if g.Value(ref, b) {
			c.Set(b, cube.One)
		} else {
			c.Set(b, cube.Zero)
		}
	}
	return c
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

// covers reports whether cube c covers state s.
func (a *Analyzer) covers(c cube.Cube, s int) bool {
	return c.ContainsMintermCube(a.mintCubes[s])
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
	g := a.G
	regs := a.regs(er.Signal)
	i := a.erIndex(er)
	cfr := regs.CFR(i)

	// Condition (1): cover all ER states.
	var missed []int
	for _, s := range er.States {
		if !a.covers(c, s) {
			missed = append(missed, s)
		}
	}
	if len(missed) > 0 {
		return &Violation{Kind: NotCovering, Signal: er.Signal, ER: er, Cube: c, States: missed}
	}

	// Condition (2): the cube changes at most once along any trace inside
	// the CFR. Since the cube is 1 on the whole excitation region (the
	// entry of every trace), "at most once" means the cube may only FALL
	// inside the CFR: any rising edge within the CFR is a second change
	// for some trace — and, at the gate level, an AND-gate rise that no
	// latch acknowledges, which a later input can disable (this exact
	// hazard is reproduced in the verifier tests).
	if u, v := a.doubleChange(cfr, c); u >= 0 {
		return &Violation{Kind: NonMonotonic, Signal: er.Signal, ER: er, Cube: c, States: []int{u, v}}
	}

	// Condition (3): cover no reachable state outside the CFR.
	var outside []int
	for s := 0; s < g.NumStates(); s++ {
		if !cfr.Has(s) && a.covers(c, s) {
			outside = append(outside, s)
		}
	}
	if len(outside) > 0 {
		return &Violation{Kind: OutsideCFR, Signal: er.Signal, ER: er, Cube: c, States: outside}
	}
	return nil
}

// checkMCFast is CheckMC reduced to a yes/no verdict with the CFR
// precomputed by the caller. The candidate-search loops (FindMC's
// subset enumeration, shrinkMC's greedy dropping) consume only
// nil-ness, so they skip the per-call CFR clone and the diagnostic
// state lists of the full check.
//
//reprolint:hotpath
func (a *Analyzer) checkMCFast(er *sg.Region, c cube.Cube, cfr sg.StateSet) bool {
	for _, s := range er.States {
		if !a.covers(c, s) {
			return false
		}
	}
	if u, _ := a.doubleChange(cfr, c); u >= 0 {
		return false
	}
	for s := 0; s < a.G.NumStates(); s++ {
		if !cfr.Has(s) && a.covers(c, s) {
			return false
		}
	}
	return true
}

// doubleChange looks for a monotonicity violation of cube c inside the
// CFR: a rising edge (uncovered → covered) between CFR states. It
// returns the edge's endpoints, or (-1, -1) when the cube only falls.
func (a *Analyzer) doubleChange(cfr sg.StateSet, c cube.Cube) (int, int) {
	g := a.G
	to := -1
	u := cfr.FindFirst(func(s int) bool {
		if a.covers(c, s) {
			return false
		}
		for _, e := range g.States[s].Succ {
			if cfr.Has(e.To) && a.covers(c, e.To) {
				to = e.To
				return true
			}
		}
		return false
	})
	if u < 0 {
		return -1, -1
	}
	return u, to
}

// CheckCorrectCover verifies Definition 16: the cube must not cover any
// state where the excitation function of the region's signal has value 0
// — for an up-region, 1*-set(a) ∪ 0-set(a); for a down-region,
// 0*-set(a) ∪ 1-set(a).
func (a *Analyzer) CheckCorrectCover(er *sg.Region, c cube.Cube) *Violation {
	// Membership in the forbidden set follows directly from the state's
	// value/excitation classification (Definition 13), so no
	// characteristic sets are materialized: a state is forbidden for an
	// up-region when a is excited at 1 or stable at 0, and dually for a
	// down-region.
	sig := er.Signal
	up := er.Dir == sg.Plus
	var bad []int
	for s := 0; s < a.G.NumStates(); s++ {
		v, ex := a.G.Value(s, sig), a.Idx.Excited(s, sig)
		if (v == ex) != up {
			continue
		}
		if a.covers(c, s) {
			bad = append(bad, s)
		}
	}
	if len(bad) > 0 {
		return &Violation{Kind: IncorrectCover, Signal: er.Signal, ER: er, Cube: c, States: bad}
	}
	return nil
}

// FindMC searches for a monotonous cover cube for er. The canonical
// cover cube is the smallest candidate; when it violates condition (2),
// dropping literals can restore monotonicity at the risk of breaking
// condition (3), so the search enumerates literal subsets in order of
// increasing size. It returns the found cube, or the blocking violation
// of the most constrained candidate.
func (a *Analyzer) FindMC(er *sg.Region) (cube.Cube, *Violation) {
	c := a.CoverCube(er)
	v := a.CheckMC(er, c)
	if v == nil {
		return a.shrinkMC(er, c), nil
	}
	if v.Kind != NonMonotonic {
		// Conditions (1) and (3) can only get worse by enlarging the
		// cube; the canonical cube's verdict is final.
		return cube.Cube{}, v
	}
	// Candidate literals to drop: only signals that change value inside
	// the CFR can make the cube non-monotonic there — dropping a
	// CFR-constant literal leaves the in-CFR pattern unchanged and only
	// risks condition (3).
	regs := a.regs(er.Signal)
	cfr := regs.CFR(a.erIndex(er))
	lits := a.varyingLiterals(c, cfr)
	cand := c.Clone()
	for size := 1; size <= len(lits); size++ {
		var found cube.Cube
		ok := forEachSubset(lits, size, func(drop []int) bool {
			cand.CopyFrom(c)
			for _, l := range drop {
				cand.Set(l, cube.Full)
			}
			if a.checkMCFast(er, cand, cfr) {
				found = cand.Clone()
				return true
			}
			return false
		})
		if ok {
			return a.shrinkMC(er, found), nil
		}
	}
	return cube.Cube{}, v
}

// mcViolation is the existence-only twin of FindMC: identical verdict
// (a cover exists iff FindMC returns a nil violation — shrinking never
// changes that), but no cube is built, cloned or shrunk. The budgeted
// candidate scorer calls it thousands of times per repair round.
func (a *Analyzer) mcViolation(er *sg.Region) *Violation {
	regs := a.regs(er.Signal)
	if a.cfrBuf == nil {
		a.cfrBuf = sg.NewStateSet(a.G.NumStates())
		a.ccBuf = cube.NewFull(a.G.NumSignals())
		a.candBuf = cube.NewFull(a.G.NumSignals())
	}
	cfr := regs.CFRInto(a.erIndex(er), a.cfrBuf)
	c := a.coverCubeInto(er, a.ccBuf)
	// The three MC conditions of CheckMC, existence-only: first failure
	// wins, no diagnostic state lists and no Cube in the Violation (the
	// counting callers only test nil-ness; the cube is analyzer scratch).
	// Conditions (1) and (3) are final for the canonical cube (enlarging
	// only makes them worse); only a condition-(2) failure warrants the
	// literal-dropping search below.
	for _, s := range er.States {
		if !a.covers(c, s) {
			return &Violation{Kind: NotCovering, Signal: er.Signal, ER: er}
		}
	}
	if u, _ := a.doubleChange(cfr, c); u < 0 {
		for s := 0; s < a.G.NumStates(); s++ {
			if !cfr.Has(s) && a.covers(c, s) {
				return &Violation{Kind: OutsideCFR, Signal: er.Signal, ER: er, States: []int{s}}
			}
		}
		return nil
	}
	a.litsBuf = a.varyingLitsInto(c, cfr, a.litsBuf[:0])
	lits := a.litsBuf
	if cap(a.subBuf) < 2*len(lits) {
		a.subBuf = make([]int, 2*len(lits))
	}
	cand := a.candBuf
	for size := 1; size <= len(lits); size++ {
		if forEachSubsetScratch(lits, size, a.subBuf, func(drop []int) bool {
			cand.CopyFrom(c)
			for _, l := range drop {
				cand.Set(l, cube.Full)
			}
			return a.checkMCFast(er, cand, cfr)
		}) {
			return nil
		}
	}
	return &Violation{Kind: NonMonotonic, Signal: er.Signal, ER: er}
}

// shrinkMC greedily removes literals from a valid monotonous cover while
// the MC conditions keep holding, mirroring the two-level optimization
// the paper applies to the excitation functions (fewer literals, smaller
// AND gates).
func (a *Analyzer) shrinkMC(er *sg.Region, c cube.Cube) cube.Cube {
	cfr := a.regs(er.Signal).CFR(a.erIndex(er))
	c = c.Clone()
	cand := c.Clone()
	for {
		dropped := false
		for _, l := range c.Literals() {
			cand.CopyFrom(c)
			cand.Set(l, cube.Full)
			if a.checkMCFast(er, cand, cfr) {
				c.CopyFrom(cand)
				dropped = true
			}
		}
		if !dropped {
			return c
		}
	}
}

// varyingLiterals returns the cube's literals whose signals take both
// values over the given state set.
func (a *Analyzer) varyingLiterals(c cube.Cube, states sg.StateSet) []int {
	return a.varyingLitsInto(c, states, nil)
}

// varyingLitsInto is varyingLiterals appending into a caller-provided
// buffer, walking the cube directly instead of materializing Literals.
func (a *Analyzer) varyingLitsInto(c cube.Cube, states sg.StateSet, out []int) []int {
	for l := 0; l < c.N(); l++ {
		if c.Get(l) == cube.Full {
			continue
		}
		saw0, saw1 := false, false
		states.FindFirst(func(s int) bool {
			if a.G.Value(s, l) {
				saw1 = true
			} else {
				saw0 = true
			}
			return saw0 && saw1
		})
		if saw0 && saw1 {
			out = append(out, l)
		}
	}
	return out
}

// forEachSubset calls fn with every size-k subset of lits until fn
// returns true; it reports whether fn succeeded.
func forEachSubset(lits []int, k int, fn func([]int) bool) bool {
	return forEachSubsetScratch(lits, k, make([]int, 2*k), fn)
}

// forEachSubsetScratch is forEachSubset with a caller-provided scratch
// of at least 2k ints.
func forEachSubsetScratch(lits []int, k int, scratch []int, fn func([]int) bool) bool {
	idx := scratch[:k]
	sub := scratch[k : 2*k] // recycled between calls; fn must not retain it
	var rec func(start, depth int) bool
	rec = func(start, depth int) bool {
		if depth == k {
			for i, j := range idx {
				sub[i] = lits[j]
			}
			return fn(sub)
		}
		for i := start; i <= len(lits)-(k-depth); i++ {
			idx[depth] = i
			if rec(i+1, depth+1) {
				return true
			}
		}
		return false
	}
	return rec(0, 0)
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
func (a *Analyzer) WireOf(sig int) (Wire, bool) {
	regs := a.regs(sig)
	if len(regs.ER) == 0 {
		return Wire{}, false
	}
	n := a.G.NumSignals()
	// One candidate literal is checked against every region for every
	// signal, so the forbidden sets (identical across the whole scan)
	// are computed once and the cover check early-exits on the first
	// forbidden state instead of assembling diagnostics.
	sets := a.SetsOf(sig)
	coverOK := func(er *sg.Region, c cube.Cube) bool {
		f1, f2 := sets.OneStar, sets.Zero
		if er.Dir == sg.Minus {
			f1, f2 = sets.ZeroStar, sets.One
		}
		bad := func(s int) bool { return a.covers(c, s) }
		return f1.FindFirst(bad) < 0 && f2.FindFirst(bad) < 0
	}
	for b := range a.G.Signals {
		if b == sig {
			continue
		}
		for _, inverted := range []bool{false, true} {
			up := cube.NewFull(n)
			down := cube.NewFull(n)
			if inverted {
				up.Set(b, cube.Zero)
				down.Set(b, cube.One)
			} else {
				up.Set(b, cube.One)
				down.Set(b, cube.Zero)
			}
			ok := true
			for _, er := range regs.ER {
				c := up
				if er.Dir == sg.Minus {
					c = down
				}
				// The literal must cover the whole ER and cover it
				// correctly (Definition 16) — monotonicity is waived in
				// the degenerate case.
				for _, s := range er.States {
					if !a.covers(c, s) {
						ok = false
						break
					}
				}
				if !ok || !coverOK(er, c) {
					ok = false
					break
				}
			}
			if ok {
				return Wire{Of: b, Inverted: inverted}, true
			}
		}
	}
	return Wire{}, false
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
// every non-input signal. The per-signal analyses are independent and
// fan out over the analyzer's worker pool; results are assembled in
// signal order, so the report is deterministic.
func (a *Analyzer) CheckGraph() *Report {
	rep := &Report{G: a.G, A: a}
	sigs := make([]int, 0, a.G.NumSignals())
	for sig := range a.G.Signals {
		if !a.G.Input[sig] {
			sigs = append(sigs, sig)
		}
	}
	sort.Ints(sigs)
	perSig := make([][]RegionResult, len(sigs))
	par.ForEachHook(len(sigs), a.workers, func(k int) {
		perSig[k] = a.checkSignal(sigs[k])
	}, obs.TaskHook("core.mc"))
	for _, results := range perSig {
		rep.Results = append(rep.Results, results...)
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
func (a *Analyzer) scanOrder(hot []string) []int {
	sigs := make([]int, 0, a.G.NumSignals())
	for sig := range a.G.Signals {
		if !a.G.Input[sig] {
			sigs = append(sigs, sig)
		}
	}
	sort.Ints(sigs)
	if len(hot) > 0 {
		rank := make(map[int]int, len(hot))
		for i, name := range hot {
			if sig := a.G.SignalIndex(name); sig >= 0 {
				if _, ok := rank[sig]; !ok {
					rank[sig] = i
				}
			}
		}
		sort.SliceStable(sigs, func(i, j int) bool {
			ri, iok := rank[sigs[i]]
			rj, jok := rank[sigs[j]]
			if iok != jok {
				return iok
			}
			return iok && ri < rj
		})
	}
	return sigs
}

// CountViolationsBudget counts the graph's MC-violating excitation
// regions with a branch-and-bound budget; it is the repair loop's
// candidate scorer. It scans the non-input signals sequentially, hot
// names first (scanOrder), and stops once the count reaches budget
// (budget <= 0 means no bound). The count is exact below budget and
// means "at least budget" otherwise, which is all a scorer needs to
// discard a candidate against an incumbent with fewer violations. Each
// signal gets the same verdict as in CheckGraph, but no report is
// assembled and the success-path cube shrinking is skipped, since
// greedy literal dropping can never turn a found cover into a
// violation (or vice versa). The scan is deliberately sequential: the
// repair loop already scores candidates in parallel, so a per-signal
// fan-out underneath would only oversubscribe the pool.
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
	var results []RegionResult
	failed := false
	for _, er := range regs.ER {
		v := a.mcViolation(er)
		if v != nil {
			failed = true
		}
		results = append(results, RegionResult{Signal: sig, ER: er, Violation: v})
	}
	if !failed {
		return 0
	}
	if a.groupSameFunction(sig, results) {
		return 0
	}
	if _, ok := a.WireOf(sig); ok {
		return 0
	}
	n := 0
	for i := range results {
		if results[i].Violation != nil {
			n++
		}
	}
	return n
}

// checkSignal evaluates the MC requirement for every excitation region
// of one signal, including the shared-cube and degenerate fallbacks.
func (a *Analyzer) checkSignal(sig int) []RegionResult {
	var results []RegionResult
	failed := false
	for _, er := range a.regs(sig).ER {
		c, v := a.FindMC(er)
		if v != nil {
			failed = true
		}
		results = append(results, RegionResult{Signal: sig, ER: er, Cube: c, Violation: v})
	}
	if failed {
		// Multiple transitions of one signal may share a single cube
		// (Definition 19 with F a set of same-signal transitions):
		// e.g. two excitation regions with identical codes in
		// alternative branches. Try a generalized cube over all
		// regions of the same direction.
		failed = !a.groupSameFunction(sig, results)
	}
	if failed {
		// Degenerate fallback: the whole signal as a single-literal
		// wire needs only correct covers (Section IV, note 2).
		if w, ok := a.WireOf(sig); ok {
			n := a.G.NumSignals()
			for i := range results {
				c := cube.NewFull(n)
				lit := cube.One
				if (results[i].ER.Dir == sg.Plus) == w.Inverted {
					lit = cube.Zero
				}
				c.Set(w.Of, lit)
				results[i].Cube = c
				results[i].Violation = nil
				results[i].Degenerate = true
			}
		}
	}
	return results
}

// groupSameFunction attempts to repair the failed regions of one signal
// by covering groups of same-direction regions with one generalized MC
// cube. It updates results in place and reports whether every region of
// the signal ended up violation-free.
func (a *Analyzer) groupSameFunction(sig int, results []RegionResult) bool {
	for _, dir := range []sg.Dir{sg.Plus, sg.Minus} {
		var idx []int
		anyFailed := false
		for i := range results {
			if results[i].ER.Dir == dir {
				idx = append(idx, i)
				if results[i].Violation != nil {
					anyFailed = true
				}
			}
		}
		if !anyFailed || len(idx) < 2 {
			continue
		}
		// Candidate groups: all same-direction regions, then only the
		// failed ones.
		groups := [][]int{idx}
		var failedOnly []int
		for _, i := range idx {
			if results[i].Violation != nil {
				failedOnly = append(failedOnly, i)
			}
		}
		if len(failedOnly) >= 2 && len(failedOnly) < len(idx) {
			groups = append(groups, failedOnly)
		}
		for _, group := range groups {
			ers := make([]*sg.Region, len(group))
			sup := a.CoverCube(results[group[0]].ER)
			for k, i := range group {
				ers[k] = results[i].ER
				if k > 0 {
					sup = sup.Supercube(a.CoverCube(results[i].ER))
				}
			}
			c, ok := a.findGeneralizedMC(ers, sup)
			if !ok {
				continue
			}
			// Theorem 5 side condition within the signal: the shared
			// cube must not touch the regions outside the group.
			touches := false
			for _, i := range idx {
				inGroup := false
				for _, j := range group {
					if i == j {
						inGroup = true
					}
				}
				if inGroup {
					continue
				}
				for _, s := range results[i].ER.States {
					if a.covers(c, s) {
						touches = true
					}
				}
			}
			if touches {
				continue
			}
			for _, i := range group {
				results[i].Cube = c
				results[i].Violation = nil
			}
			break
		}
	}
	for i := range results {
		if results[i].Violation != nil {
			return false
		}
	}
	return true
}

// findGeneralizedMC searches for a generalized MC cube for the region
// set, starting from the given candidate and dropping literals on
// non-monotonicity, mirroring FindMC.
func (a *Analyzer) findGeneralizedMC(ers []*sg.Region, c cube.Cube) (cube.Cube, bool) {
	v := a.CheckGeneralizedMC(ers, c)
	if v == nil {
		return a.shrinkGeneralized(ers, c), true
	}
	if v.Kind != NonMonotonic {
		return cube.Cube{}, false
	}
	union := sg.NewStateSet(a.G.NumStates())
	for _, er := range ers {
		regs := a.regs(er.Signal)
		union.UnionWith(regs.CFR(a.erIndexIn(regs, er)))
	}
	lits := a.varyingLiterals(c, union)
	for size := 1; size <= len(lits); size++ {
		var found cube.Cube
		ok := forEachSubset(lits, size, func(drop []int) bool {
			cand := c.Clone()
			for _, l := range drop {
				cand.Set(l, cube.Full)
			}
			if a.CheckGeneralizedMC(ers, cand) == nil {
				found = cand
				return true
			}
			return false
		})
		if ok {
			return a.shrinkGeneralized(ers, found), true
		}
	}
	return cube.Cube{}, false
}

// shrinkGeneralized is shrinkMC for generalized covers.
func (a *Analyzer) shrinkGeneralized(ers []*sg.Region, c cube.Cube) cube.Cube {
	c = c.Clone()
	for {
		dropped := false
		for _, l := range c.Literals() {
			cand := c.Clone()
			cand.Set(l, cube.Full)
			if a.CheckGeneralizedMC(ers, cand) == nil {
				c = cand
				dropped = true
			}
		}
		if !dropped {
			return c
		}
	}
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
