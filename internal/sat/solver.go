// Package sat implements a CDCL (conflict-driven clause learning) Boolean
// satisfiability solver with two-literal watching, first-UIP learning,
// VSIDS-style branching activities, phase saving and geometric restarts.
//
// It is the substrate for the generalized state-assignment step of the
// synthesis flow: the Monotonous Cover requirement is translated into 0-1
// Boolean constraints over per-state labelling variables (Section V/VII of
// the paper, following Vanbekbergen et al.), and those constraints are
// solved here. The solver also supports incremental solving under
// assumptions and model enumeration through blocking clauses. Learned
// clauses are retained across Solve calls, so a caller that expresses
// per-query constraints as assumptions (rather than rebuilding the
// formula) amortizes the search effort over all its queries.
//
// Two pieces serve the repair loop's determinism contract:
//
//   - Config.Canonical branches on the lowest-index unassigned variable,
//     false first, which makes every answer a pure function of the
//     formula: the first model returned is the lexicographically least
//     one, regardless of which entailed clauses the solver happens to
//     have learned or imported.
//   - ExportLearnts / ImportLearnts move learnt clauses between solvers.
//     Import re-validates every candidate clause against the receiving
//     solver's own formula by reverse unit propagation, so importing is
//     sound even across formulas (the cross-round case) and importing
//     arbitrary junk can never flip a verdict.
//
// Together they let cross-round clause carrying accelerate the search
// without ever changing its result.
//
// Canonical enumeration is resumable. A canonical Solve that answers
// SAT keeps its trail; BlockModel then blocks the model by the negation
// of that trail's decisions, backjumps one level and asserts the flipped
// deepest decision, and the next Solve under the same assumptions
// carries on from there instead of redoing the descent from level 0.
// Every other call (Solve under other assumptions, AddClause,
// ImportLearnts, ExportLearnts, NewVar) first returns the solver to
// decision level 0. Resuming changes no answer: any canonical run ends
// at the lexicographically least model wherever it starts.
package sat

import (
	"math"
	"slices"
	"sort"
)

// Search heuristics of the default (VSIDS) mode.
const (
	varDecay    = 0.95 // activity decay divisor; higher keeps history longer
	restartBase = 256  // conflict budget of the first restart interval
)

// Config selects a solver's search heuristics. The zero value is the
// package default: VSIDS branching with phase saving (false initially).
// Heuristics never affect which formulas are satisfiable, only how fast
// an answer is found — and in canonical mode, not even which model is
// found.
type Config struct {
	// Canonical branches on the lowest-index unassigned variable and
	// always tries false first, ignoring activities and saved phases.
	// The first model found is then the lexicographically least model
	// of the formula under the assumptions, independent of the learnt
	// clause database; enumeration through blocking clauses yields
	// models in strictly increasing lexicographic order.
	Canonical bool
}

// Stats is a snapshot of a solver's search counters.
type Stats struct {
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Conflicts += other.Conflicts
	s.Decisions += other.Decisions
	s.Propagations += other.Propagations
	s.Restarts += other.Restarts
}

// Lit is a literal: +v for variable v, -v for its negation. Variables are
// numbered from 1.
type Lit int32

// Neg returns the complement literal.
func (l Lit) Neg() Lit { return -l }

// Var returns the literal's variable.
func (l Lit) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// Sign reports whether the literal is positive.
func (l Lit) Sign() bool { return l > 0 }

// index maps a literal to a dense index: var v → 2(v-1) (positive) or
// 2(v-1)+1 (negative).
func (l Lit) index() int {
	v := l.Var() - 1
	if l > 0 {
		return 2 * v
	}
	return 2*v + 1
}

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

// cref addresses a clause in the solver's arena: the clause of length n
// at offset c is arena[c] = n followed by its n literals. Offset 0 is
// reserved, so the zero cref means "no clause" (a decision, an
// assumption or a level-0 unit has no reason). Watchers, reasons and the
// learnt list hold crefs, not pointers, so clause memory is one
// pointer-free slice that the collector never scans and propagation
// writes without write barriers.
type cref int32

const noClause cref = 0

// learntClause is one learnt clause: its arena offset and its literal
// block distance at learn time.
type learntClause struct {
	c   cref
	lbd int32
}

// Solver is a CDCL SAT solver. The zero value is not usable; create
// instances with New.
type Solver struct {
	nVars   int
	arena   []Lit          // every clause of length ≥ 2, addressed by cref
	learnts []learntClause // learnt and certified imported clauses, in order
	watches [][]watcher    // literal index → clauses watching that literal

	assign  []lbool // variable (1-based) → value
	level   []int   // variable → decision level of assignment
	reason  []cref  // variable → clause that implied it (noClause otherwise)
	trail   []Lit
	trailLo int // propagation queue head
	limits  []int

	activity []float64
	varInc   float64
	phase    []bool

	cfg     Config
	lowHint int   // canonical mode: smallest variable that may be unassigned
	lbdMark []int // level → generation stamp, scratch for LBD computation
	lbdGen  int

	seenMark   []int // variable → generation stamp, scratch for analyze and BlockModel
	seenGen    int
	analyzeBuf []Lit // reusable learnt-clause buffer for analyze
	addBuf     []Lit // reusable normalization buffer for AddClause
	blockBuf   []Lit // reusable blocking-clause buffer for BlockModel

	// Resumable canonical enumeration. kept marks a trail left above
	// level 0 as a valid search state under keptAssume, whose assumption
	// levels are the first keptLevel; atModel marks that the trail is
	// still the complete assignment of the last model.
	kept       bool
	atModel    bool
	keptAssume []Lit
	keptLevel  int

	// Statistics, exported for benchmarking and diagnostics.
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64

	model []bool
	ok    bool
}

// New returns an empty, satisfiable solver with the default heuristics.
func New() *Solver {
	return NewWith(Config{})
}

// NewWith returns an empty, satisfiable solver using the given
// heuristic configuration.
func NewWith(cfg Config) *Solver {
	return &Solver{varInc: 1, ok: true, cfg: cfg, lowHint: 1}
}

// Stats returns a snapshot of the solver's search counters.
func (s *Solver) Stats() Stats {
	return Stats{
		Conflicts:    s.Conflicts,
		Decisions:    s.Decisions,
		Propagations: s.Propagations,
		Restarts:     s.Restarts,
	}
}

// NewVar allocates a fresh variable and returns its (1-based) number.
func (s *Solver) NewVar() int {
	s.release()
	s.nVars++
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, noClause)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, false)
	s.watches = append(s.watches, nil, nil)
	return s.nVars
}

func (s *Solver) value(l Lit) lbool {
	v := s.assign[l.Var()-1]
	if v == lUndef {
		return lUndef
	}
	if l.Sign() == (v == lTrue) {
		return lTrue
	}
	return lFalse
}

// AddClause adds a clause to the solver. It returns false when the clause
// makes the formula trivially unsatisfiable (empty clause, or a conflicting
// unit at level 0). It first returns the solver to decision level 0,
// dropping a trail kept for resumed enumeration.
func (s *Solver) AddClause(lits ...Lit) bool {
	s.release()
	if !s.ok {
		return false
	}
	// Normalize: sort, drop duplicates and false literals, detect
	// tautologies and satisfied clauses. The clause is normalized in a
	// reusable buffer and copied once, into the arena.
	ls := append(s.addBuf[:0], lits...)
	s.addBuf = ls
	slices.Sort(ls)
	out := ls[:0]
	var prev Lit
	for _, l := range ls {
		if l == 0 || l.Var() > s.nVars {
			panic("sat: literal out of range")
		}
		if l == prev {
			continue
		}
		if l == -prev && prev != 0 {
			return true // tautology: x ∨ ¬x
		}
		switch s.value(l) {
		case lTrue:
			return true // already satisfied at level 0
		case lFalse:
			continue // drop false literal
		}
		out = append(out, l)
		prev = l
	}
	// A sorted clause can still hide a tautology pair (-x, x are not
	// adjacent after sorting since -x < x only for same var when... they
	// are adjacent: -v sorts right before smaller positives). Handle the
	// general case explicitly.
	for i := 0; i+1 < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[i] == -out[j] {
				return true
			}
		}
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		if !s.enqueue(out[0], noClause) {
			s.ok = false
			return false
		}
		if s.propagate() != noClause {
			s.ok = false
			return false
		}
		return true
	}
	// Store highest variables first: the watched literals are then the
	// ones assigned LAST under lexicographic branching, which keeps
	// wide clauses — model-blocking clauses above all — dormant until a
	// branch has nearly reproduced them, instead of being inspected by
	// every low-variable decision. (Clause order is semantically
	// irrelevant; this only places the watches.)
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	s.watch(s.alloc(out))
	return true
}

// alloc copies a clause into the arena and returns its offset. The
// slices lits returns point into the arena, so one must not be held
// across an alloc, which may move the arena.
func (s *Solver) alloc(lits []Lit) cref {
	if len(s.arena) == 0 {
		s.arena = append(s.arena, 0) // offset 0 is noClause
	}
	if len(s.arena) > math.MaxInt32-1-len(lits) {
		panic("sat: clause arena full")
	}
	c := cref(len(s.arena))
	s.arena = append(s.arena, Lit(len(lits)))
	s.arena = append(s.arena, lits...)
	return c
}

// lits returns clause c's literals, in the arena's own memory: swaps
// through it reorder the clause in place. It stays valid until the
// next alloc.
func (s *Solver) lits(c cref) []Lit {
	n := cref(s.arena[c])
	return s.arena[c+1 : c+1+n : c+1+n]
}

// watcher is one entry of a literal's watch list. The blocker is some
// literal of the clause (initially the other watched one): when it is
// already true the clause is satisfied and propagation can skip the
// clause without touching its memory. Model-blocking clauses are wide
// and numerous here, so most watcher visits end at this one-word check.
type watcher struct {
	c       cref
	blocker Lit
}

func (s *Solver) watch(c cref) {
	// Watch the negations of the first two literals: when one becomes
	// true (literal false), the clause is inspected.
	ls := s.lits(c)
	w0, w1 := ls[0].Neg().index(), ls[1].Neg().index()
	s.watches[w0] = append(s.watches[w0], watcher{c, ls[1]})
	s.watches[w1] = append(s.watches[w1], watcher{c, ls[0]})
}

func (s *Solver) enqueue(l Lit, from cref) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var() - 1
	if l.Sign() {
		s.assign[v] = lTrue
	} else {
		s.assign[v] = lFalse
	}
	s.level[v] = len(s.limits)
	s.reason[v] = from
	s.phase[v] = l.Sign()
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation; it returns a conflicting clause or
// noClause.
//
//reprolint:hotpath
func (s *Solver) propagate() cref {
	for s.trailLo < len(s.trail) {
		l := s.trail[s.trailLo]
		s.trailLo++
		s.Propagations++
		falseLit := l.Neg()
		// Clauses watching l (i.e. containing ¬l as a watched literal...
		// we stored watchers under the negation of the watched literal,
		// so watchers of index(l) are clauses whose watched literal is
		// ¬l, which has just become false).
		// Compact the bucket in place: clauses that keep watching ¬l
		// are written back through j, moved clauses are dropped. Appends triggered for a relocated clause always
		// target a different bucket (its new watch literal cannot be
		// ¬l, which is false), so the in-place scan is safe.
		ws := s.watches[l.index()]
		j := 0
		for wi := 0; wi < len(ws); wi++ {
			w := ws[wi]
			// Satisfied via the cached blocker: keep watching, skip the
			// clause body entirely.
			if s.value(w.blocker) == lTrue {
				ws[j] = w
				j++
				continue
			}
			c := w.c
			// Propagation allocates no clause, so ls stays valid for the
			// whole visit.
			ls := s.lits(c)
			// Ensure the false literal is ls[1].
			if ls[0] == falseLit {
				ls[0], ls[1] = ls[1], ls[0]
			}
			// If the other watched literal is true, keep watching and
			// remember it as the blocker.
			first := ls[0]
			if s.value(first) == lTrue {
				ws[j] = watcher{c, first}
				j++
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(ls); k++ {
				if s.value(ls[k]) != lFalse {
					ls[1], ls[k] = ls[k], ls[1]
					wl := ls[1].Neg().index()
					s.watches[wl] = append(s.watches[wl], watcher{c, first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			ws[j] = watcher{c, first}
			j++
			if !s.enqueue(first, c) {
				// Conflict: restore remaining watchers and report.
				j += copy(ws[j:], ws[wi+1:])
				s.watches[l.index()] = ws[:j]
				s.trailLo = len(s.trail)
				return c
			}
		}
		s.watches[l.index()] = ws[:j]
	}
	return noClause
}

func (s *Solver) bumpVar(v int) {
	s.activity[v-1] += s.varInc
	if s.activity[v-1] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
}

func (s *Solver) decayVar() { s.varInc /= varDecay }

// computeLBD returns the literal block distance of a clause: the number
// of distinct decision levels among its literals' assignments. Small
// LBD marks "glue" clauses worth sharing across solvers.
func (s *Solver) computeLBD(lits []Lit) int32 {
	need := len(s.limits) + 1
	if len(s.lbdMark) < need {
		s.lbdMark = append(s.lbdMark, make([]int, need-len(s.lbdMark))...)
	}
	s.lbdGen++
	var n int32
	for _, l := range lits {
		lv := s.level[l.Var()-1]
		if lv < len(s.lbdMark) && s.lbdMark[lv] != s.lbdGen {
			s.lbdMark[lv] = s.lbdGen
			n++
		}
	}
	return n
}

// analyze performs first-UIP conflict analysis and returns the learnt
// clause (asserting literal first) and the backtrack level.
func (s *Solver) analyze(confl cref) ([]Lit, int) {
	learnt := append(s.analyzeBuf[:0], 0) // slot 0 reserved for the asserting literal
	if len(s.seenMark) < s.nVars {
		s.seenMark = make([]int, s.nVars)
	}
	s.seenGen++
	gen := s.seenGen
	seen := func(v int) bool { return s.seenMark[v-1] == gen }
	setSeen := func(v int, b bool) {
		if b {
			s.seenMark[v-1] = gen
		} else {
			s.seenMark[v-1] = 0
		}
	}
	counter := 0
	var p Lit
	idx := len(s.trail) - 1

	c := confl
	for {
		for _, q := range s.lits(c) {
			if p != 0 && q == p {
				continue
			}
			v := q.Var()
			if seen(v) || s.value(q) != lFalse {
				continue
			}
			setSeen(v, true)
			s.bumpVar(v)
			if s.level[v-1] == len(s.limits) {
				counter++
			} else if s.level[v-1] > 0 {
				learnt = append(learnt, q)
			}
		}
		// Find the next trail literal to resolve on.
		for idx >= 0 && !seen(s.trail[idx].Var()) {
			idx--
		}
		if idx < 0 {
			break
		}
		p = s.trail[idx]
		c = s.reason[p.Var()-1]
		setSeen(p.Var(), false)
		counter--
		idx--
		if counter == 0 {
			break
		}
		if c == noClause {
			// Decision literal reached with pending counts; should not
			// happen in well-formed analysis, but guard anyway.
			break
		}
	}
	learnt[0] = p.Neg()

	// Backtrack level: second-highest level in the learnt clause. Move a
	// literal of that level into slot 1 so the two watched literals keep
	// the watching invariant after backtracking.
	back, backIdx := 0, -1
	for i, q := range learnt[1:] {
		if lv := s.level[q.Var()-1]; lv > back {
			back, backIdx = lv, i+1
		}
	}
	if backIdx > 1 {
		learnt[1], learnt[backIdx] = learnt[backIdx], learnt[1]
	}
	s.analyzeBuf = learnt
	return learnt, back
}

func (s *Solver) backtrackTo(level int) {
	if len(s.limits) <= level {
		return
	}
	lo := s.limits[level]
	for i := len(s.trail) - 1; i >= lo; i-- {
		v := s.trail[i].Var()
		s.assign[v-1] = lUndef
		if v < s.lowHint {
			s.lowHint = v
		}
	}
	s.trail = s.trail[:lo]
	s.trailLo = lo
	s.limits = s.limits[:level]
}

// release drops a trail kept for resumed enumeration: the solver
// returns to decision level 0.
func (s *Solver) release() {
	s.kept, s.atModel = false, false
	s.backtrackTo(0)
}

// pickBranch returns the next decision literal, or 0 when everything is
// assigned. In canonical mode that is the lowest-index unassigned
// variable, negated (false first); otherwise the unassigned variable
// with the highest activity, in its preferred phase.
func (s *Solver) pickBranch() Lit {
	if s.cfg.Canonical {
		for v := s.lowHint; v <= s.nVars; v++ {
			if s.assign[v-1] == lUndef {
				s.lowHint = v
				return Lit(-v)
			}
		}
		s.lowHint = s.nVars + 1
		return 0
	}
	best, bestAct := 0, -1.0
	for v := 1; v <= s.nVars; v++ {
		if s.assign[v-1] == lUndef && s.activity[v-1] > bestAct {
			best, bestAct = v, s.activity[v-1]
		}
	}
	if best == 0 {
		return 0
	}
	if s.phase[best-1] {
		return Lit(best)
	}
	return Lit(-best)
}

// Solve decides satisfiability under the given assumption literals. On a
// SAT answer the model is available through Value/Model. The solver can be
// re-solved with different assumptions and extended with further clauses
// between calls. In canonical mode a Solve under the same assumptions as
// the previous one resumes from the trail that call (and BlockModel)
// left; any other Solve starts from decision level 0.
func (s *Solver) Solve(assumptions ...Lit) bool {
	if !s.ok {
		return false
	}
	if s.kept && slices.Equal(assumptions, s.keptAssume) {
		s.kept, s.atModel = false, false
		return s.search(assumptions, s.keptLevel)
	}
	s.release()
	if s.propagate() != noClause {
		s.ok = false
		return false
	}

	// Apply assumptions, each at its own decision level.
	for _, a := range assumptions {
		switch s.value(a) {
		case lTrue:
			continue
		case lFalse:
			s.backtrackTo(0)
			return false
		}
		s.limits = append(s.limits, len(s.trail))
		s.enqueue(a, noClause)
		if s.propagate() != noClause {
			s.backtrackTo(0)
			return false
		}
	}
	return s.search(assumptions, len(s.limits))
}

// search runs CDCL from the current trail, whose first assumpLevel
// decision levels hold the assumptions.
func (s *Solver) search(assumptions []Lit, assumpLevel int) bool {
	restartBudget := restartBase
	for {
		confl := s.propagate()
		if confl != noClause {
			s.Conflicts++
			if len(s.limits) <= assumpLevel {
				if len(s.limits) == 0 {
					s.ok = false // a conflict at level 0 refutes the formula itself
				}
				s.backtrackTo(0)
				return false
			}
			learnt, back := s.analyze(confl)
			if back < assumpLevel {
				back = assumpLevel
			}
			s.backtrackTo(back)
			if len(learnt) == 1 {
				if !s.enqueue(learnt[0], noClause) {
					s.backtrackTo(0)
					return false
				}
			} else {
				// analyze returns its reusable buffer; alloc copies it
				// into the arena.
				c := s.alloc(learnt)
				s.learnts = append(s.learnts, learntClause{c, s.computeLBD(learnt)})
				s.watch(c)
				s.enqueue(learnt[0], c)
			}
			s.decayVar()
			restartBudget--
			if restartBudget <= 0 {
				// Restart: keep learnt clauses, drop the search tree.
				s.Restarts++
				s.backtrackTo(assumpLevel)
				restartBudget = restartBase + len(s.learnts)/2
			}
			continue
		}
		l := s.pickBranch()
		if l == 0 {
			// Complete assignment: record the model, refilling the
			// model buffer in place. A canonical search keeps the trail
			// for BlockModel and a resumed Solve.
			if cap(s.model) < s.nVars {
				s.model = make([]bool, s.nVars)
			}
			s.model = s.model[:s.nVars]
			for v := 1; v <= s.nVars; v++ {
				s.model[v-1] = s.assign[v-1] == lTrue
			}
			if s.cfg.Canonical {
				s.kept, s.atModel = true, true
				s.keptAssume = append(s.keptAssume[:0], assumptions...)
				s.keptLevel = assumpLevel
			} else {
				s.backtrackTo(0)
			}
			return true
		}
		s.Decisions++
		s.limits = append(s.limits, len(s.trail))
		s.enqueue(l, noClause)
	}
}

// Value returns the value of variable v in the last model. It panics when
// no model is available.
func (s *Solver) Value(v int) bool {
	if s.model == nil {
		panic("sat: no model available")
	}
	return s.model[v-1]
}

// Model returns a copy of the last satisfying assignment (index 0 is
// variable 1).
func (s *Solver) Model() []bool {
	out := make([]bool, len(s.model))
	copy(out, s.model)
	return out
}

// BlockModel adds a clause forbidding the last model restricted to the
// given variables (all variables when vars is empty), enabling model
// enumeration. It returns false when blocking makes the formula
// unsatisfiable at decision level 0; true does not promise another
// model.
//
// Straight after a canonical SAT answer whose decisions (assumption
// levels included) all lie in vars, the clause is the negation of those
// decisions instead. They propagate to that one model, so the clause
// excludes exactly what the projection clause would. BlockModel then
// backjumps one level and asserts the flipped deepest decision with the
// clause as its reason, and the next Solve under the same assumptions
// resumes there. Otherwise it returns to level 0 and adds the
// projection clause.
func (s *Solver) BlockModel(vars ...int) bool {
	if s.model == nil {
		panic("sat: no model to block")
	}
	if s.atModel {
		if lits := s.decisionClause(vars); lits != nil {
			k := len(lits)
			if k <= s.keptLevel || k == 1 {
				// The deepest decision is an assumption, or the clause is
				// a unit: there is no search level to resume at.
				return s.AddClause(lits...)
			}
			s.atModel = false
			s.backtrackTo(k - 1)
			c := s.alloc(lits)
			s.watch(c)
			s.enqueue(lits[0], c)
			return true
		}
	}
	s.release()
	if len(vars) == 0 {
		vars = make([]int, s.nVars)
		for i := range vars {
			vars[i] = i + 1
		}
	}
	lits := s.blockBuf[:0]
	for _, v := range vars {
		if s.model[v-1] {
			lits = append(lits, Lit(-v))
		} else {
			lits = append(lits, Lit(v))
		}
	}
	s.blockBuf = lits
	return s.AddClause(lits...)
}

// decisionClause returns the negations of the kept trail's decision
// literals, deepest first, or nil when one of them lies outside vars
// (empty vars means every variable) or the trail holds no decision.
// The two deepest literals lead, so they are the ones watched. The
// clause lives in the solver's blocking buffer until the next
// BlockModel.
func (s *Solver) decisionClause(vars []int) []Lit {
	k := len(s.limits)
	if k == 0 {
		return nil
	}
	if len(vars) > 0 {
		if len(s.seenMark) < s.nVars {
			s.seenMark = make([]int, s.nVars)
		}
		s.seenGen++
		for _, v := range vars {
			s.seenMark[v-1] = s.seenGen
		}
		for _, lo := range s.limits {
			if s.seenMark[s.trail[lo].Var()-1] != s.seenGen {
				return nil
			}
		}
	}
	lits := slices.Grow(s.blockBuf[:0], k)[:k]
	for i, lo := range s.limits {
		lits[k-1-i] = s.trail[lo].Neg()
	}
	s.blockBuf = lits
	return lits
}

// ExportLearnts returns a snapshot of the solver's learnt knowledge as
// plain clauses: every level-0 fact as a unit clause, plus every live
// learnt clause with at most maxLen literals and literal block distance
// at most maxLBD, reduced by the level-0 assignment (satisfied clauses
// skipped, false literals stripped). Clauses are internally sorted and
// the snapshot is sorted by (length, lexicographic) and deduplicated,
// so two solvers holding the same knowledge export the same bytes; max
// truncates the result (0 means no cap). Export first returns the
// solver to decision level 0, dropping a trail kept for resumed
// enumeration.
func (s *Solver) ExportLearnts(maxLen, maxLBD, max int) [][]Lit {
	s.release()
	if !s.ok {
		return nil
	}
	var out [][]Lit
	for _, l := range s.trail {
		out = append(out, []Lit{l})
	}
	buf := make([]Lit, 0, maxLen)
	for _, lc := range s.learnts {
		ls := s.lits(lc.c)
		if int(lc.lbd) > maxLBD || len(ls) > maxLen+len(s.trail) {
			// The length pre-filter is loose (stripping can only shrink);
			// the exact check happens after reduction.
			continue
		}
		buf = buf[:0]
		sat0 := false
		for _, l := range ls {
			switch s.value(l) {
			case lTrue:
				sat0 = true
			case lFalse:
				// Stripped: false at level 0 forever.
			default:
				buf = append(buf, l)
			}
			if sat0 {
				break
			}
		}
		if sat0 || len(buf) == 0 || len(buf) > maxLen {
			continue
		}
		cl := make([]Lit, len(buf))
		copy(cl, buf)
		slices.Sort(cl)
		out = append(out, cl)
	}
	sort.Slice(out, func(i, j int) bool { return litSliceLess(out[i], out[j]) })
	j := 0
	for i, cl := range out {
		if i > 0 && litSliceEqual(cl, out[j-1]) {
			continue
		}
		out[j] = cl
		j++
	}
	out = out[:j]
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// ImportLearnts adds foreign clauses to the solver's learnt database,
// keeping only those it can itself certify. Each candidate is
// normalized, range-checked against the solver's variables, reduced by
// the level-0 assignment, and then re-validated by reverse unit
// propagation: assume the clause's negation and propagate — only a
// clause whose negation immediately conflicts is entailed by the
// receiving formula and kept. That certificate is computed locally, so
// importing is sound whatever the clauses' provenance: another solver
// on the same formula, a previous repair round's solver on a smaller
// formula, or fuzzer junk. Certified units are asserted at level 0.
// Import first returns the solver to decision level 0, dropping a trail
// kept for resumed enumeration. Returns how many clauses were kept and
// how many dropped.
func (s *Solver) ImportLearnts(clauses [][]Lit) (kept, dropped int) {
	s.release()
	if !s.ok {
		return 0, len(clauses)
	}
	buf := make([]Lit, 0, 16)
next:
	for _, cand := range clauses {
		buf = append(buf[:0], cand...)
		slices.Sort(buf)
		out := buf[:0]
		var prev Lit
		for _, l := range buf {
			if l == 0 || l.Var() > s.nVars {
				dropped++
				continue next
			}
			if l == prev {
				continue
			}
			switch s.value(l) {
			case lTrue:
				dropped++ // already satisfied at level 0: nothing to learn
				continue next
			case lFalse:
				continue
			}
			out = append(out, l)
			prev = l
		}
		for i := 0; i+1 < len(out); i++ {
			for j := i + 1; j < len(out); j++ {
				if out[i] == -out[j] {
					dropped++ // tautology
					continue next
				}
			}
		}
		if len(out) == 0 {
			dropped++
			continue
		}
		// Reverse unit propagation: assume ¬out at a scratch decision
		// level; a conflict certifies that the formula entails out.
		s.limits = append(s.limits, len(s.trail))
		entailed := false
		for _, l := range out {
			if !s.enqueue(l.Neg(), noClause) {
				entailed = true
				break
			}
		}
		if !entailed {
			entailed = s.propagate() != noClause
		}
		s.backtrackTo(0)
		if !entailed {
			dropped++
			continue
		}
		if len(out) == 1 {
			if !s.enqueue(out[0], noClause) || s.propagate() != noClause {
				s.ok = false
			}
			kept++
			continue
		}
		c := s.alloc(out)
		s.learnts = append(s.learnts, learntClause{c, int32(len(out))})
		s.watch(c)
		kept++
	}
	return kept, dropped
}

func litSliceLess(a, b []Lit) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func litSliceEqual(a, b []Lit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
