// Package encode implements the synthesis procedure of Section V: state
// signals are inserted into an output semi-modular state graph until the
// Monotonous Cover requirement holds, using the generalized state
// assignment framework of Vanbekbergen et al. [11].
//
// Each state of the graph is labelled with one of four values
// {0, up, 1, down} describing the inserted signal x: "up" states form
// ER(+x), "down" states ER(−x), "1"/"0" the quiescent phases. A
// labelling is valid when every edge respects the monotone cycle
//
//	0 → up → 1 → down → 0
//
// (with self-loops allowed within each phase) and when every phase-exit
// edge that must wait for x's own transition (up→1 and down→0) is a
// non-input transition — inputs cannot be delayed by an inserted signal
// (input properness). The constraints are encoded in CNF over two
// Boolean variables per state and solved with the CDCL solver in
// internal/sat; seeding constraints derived from the concrete MC
// violation steer the search (Section VII: "constraints … solved using
// Boolean satisfiability solvers").
//
// A valid labelling is then expanded into a new state graph G′ with the
// extra signal: "up"/"down" states split into a before/after layer, the
// delayed boundary transitions fire only from the after layer, and x's
// own transitions connect the layers. The expansion preserves output
// semi-modularity and delays only non-input transitions.
package encode

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sat"
	"repro/internal/sg"
)

// Label is the 4-valued state assignment of the inserted signal.
type Label int8

// Labels of the {0, up, 1, down} assignment.
const (
	L0 Label = iota // x stable at 0
	LR              // x excited to rise: ER(+x)
	L1              // x stable at 1
	LF              // x excited to fall: ER(−x)
)

// String renders the label.
func (l Label) String() string {
	switch l {
	case L0:
		return "0"
	case LR:
		return "up"
	case L1:
		return "1"
	case LF:
		return "down"
	default:
		return fmt.Sprintf("Label(%d)", int(l))
	}
}

// xValue returns the binary value of x in states of this label before
// x's own transition fires.
func (l Label) xValue() bool { return l == L1 || l == LF }

// allowedEdge reports whether an edge from a label-f state to a label-t
// state is permitted; delayed reports whether the transition must wait
// for x's own firing (and therefore must be non-input).
func allowedEdge(f, t Label) (ok, delayed bool) {
	switch {
	case f == t:
		return true, false
	case f == L0 && t == LR, f == L1 && t == LF:
		return true, false
	case f == LR && t == L1, f == LF && t == L0:
		return true, true
	default:
		return false, false
	}
}

// Expand builds G′ from a labelling, inserting a new non-input signal
// with the given name. It fails when the labelling violates the edge
// rules or input properness, or when the new graph is inconsistent.
func Expand(g *sg.Graph, labels []Label, name string) (*sg.Graph, error) {
	ng, _, err := expandInto(g, labels, expansionOf(g, name), nil)
	return ng, err
}

// expand is Expand under the header hdr (expansionOf) returning,
// additionally, the image map used by cross-round learnt-clause
// carrying: images[s] is the index of old state s in G′ when exactly
// one of its layers is reachable, and -1 when the state was split into
// both x-layers (or is unreachable). Label constraints on an unsplit
// state have a natural counterpart on its unique image, which is what
// makes remapped learnt clauses worth offering to the next round's
// solver. A repair round expands its winner with it once.
func expand(g *sg.Graph, labels []Label, hdr sg.Graph) (*sg.Graph, []int, error) {
	ng, idx, err := expandInto(g, labels, hdr, nil)
	if err != nil {
		return nil, nil, err
	}
	images := make([]int, g.NumStates())
	for s := range images {
		lo, hi := idx[2*s], idx[2*s+1]
		switch {
		case lo >= 0 && hi < 0:
			images[s] = int(lo)
		case lo < 0 && hi >= 0:
			images[s] = int(hi)
		default:
			images[s] = -1
		}
	}
	return ng, images, nil
}

// expansionOf returns the header of g's expansions by a signal called
// name: their name, and g's signal and input lists with the new
// non-input signal appended. Every candidate of a repair round shares
// one header, so the round builds its lists once.
func expansionOf(g *sg.Graph, name string) sg.Graph {
	return sg.Graph{
		Name:    g.Name + "+" + name,
		Signals: append(append([]string(nil), g.Signals...), name),
		Input:   append(append([]bool(nil), g.Input...), false),
	}
}

// slotScratch is one chunk slot's reusable scoring memory: the
// expansion's graph and backing arrays, the candidate's dense index,
// and its lazy analyzer, whose region arena holds the candidate's
// decompositions. Scoring a candidate rebuilds all of it in place, so
// a slot stops allocating once it has grown to the largest expansion
// it has scored; one repair run's rounds share the same slots. A graph
// built in a slot aliases its memory and stays valid only until the
// slot's next use, so the search keeps a winner's labelling, not its
// graph, and the round expands the winner afresh.
type slotScratch struct {
	g      sg.Graph
	states []sg.State
	succ   []sg.Edge
	pred   []sg.Edge
	idx    []int32
	order  []int32

	ix sg.Index
	a  core.Analyzer
}

func (scr *slotScratch) ensure(n, nEdges int) {
	if cap(scr.states) < 2*n {
		scr.states = make([]sg.State, 0, 2*n)
	}
	scr.states = scr.states[:0]
	if len(scr.succ) < 2*(nEdges+n) {
		scr.succ = make([]sg.Edge, 2*(nEdges+n))
		scr.pred = make([]sg.Edge, 2*(nEdges+n))
	}
	if len(scr.idx) < 2*n {
		scr.idx = make([]int32, 2*n)
	}
	if cap(scr.order) < 2*n {
		scr.order = make([]int32, 0, 2*n)
	}
	scr.order = scr.order[:0]
}

// expandInto builds the expansion of g by labels under the header hdr
// (expansionOf), whose last signal is the inserted one. It returns the
// graph and its state table: idx[2s+x] is the new index of old state s
// in the x = 0 or 1 layer, -1 when that layer is unreachable. With a
// scratch both live in the scratch's memory; without one they are
// allocated.
func expandInto(g *sg.Graph, labels []Label, hdr sg.Graph, scr *slotScratch) (*sg.Graph, []int32, error) {
	if len(labels) != g.NumStates() {
		return nil, nil, fmt.Errorf("encode: %d labels for %d states", len(labels), g.NumStates())
	}
	if g.NumSignals() >= 64 {
		return nil, nil, fmt.Errorf("encode: signal limit reached")
	}
	if name := hdr.Signals[g.NumSignals()]; g.SignalIndex(name) >= 0 {
		return nil, nil, fmt.Errorf("encode: signal name %q already exists", name)
	}
	for s, st := range g.States {
		for _, e := range st.Succ {
			ok, delayed := allowedEdge(labels[s], labels[e.To])
			if !ok {
				return nil, nil, fmt.Errorf("encode: edge s%d(%s)→s%d(%s) violates the label cycle",
					s, labels[s], e.To, labels[e.To])
			}
			if delayed && g.Input[e.Signal] {
				return nil, nil, fmt.Errorf("encode: input transition %s%s on delayed edge s%d→s%d",
					g.Signals[e.Signal], e.Dir, s, e.To)
			}
		}
	}

	xSig := g.NumSignals()

	// States are (original state, x value) pairs, created on demand
	// during forward reachability. The pair is a flat index 2s+x into a
	// dense table — this runs once per scored candidate, so no maps.
	// The state table and both adjacency lists are carved out of
	// preallocated backings: state (s,x) gets at most deg(s)+1 edges per
	// direction (the original transitions stay in their layer, plus x's
	// own transition), so append never reallocates on this hot path.
	n := g.NumStates()
	nEdges := 0
	for s := range g.States {
		nEdges += len(g.States[s].Succ)
	}
	var (
		ng               *sg.Graph
		succBuf, predBuf []sg.Edge
		idx, order       []int32
	)
	if scr != nil {
		scr.ensure(n, nEdges)
		scr.g = hdr
		ng = &scr.g
		ng.States = scr.states
		succBuf, predBuf = scr.succ, scr.pred
		idx = scr.idx[:2*n]
		order = scr.order
	} else {
		ng = new(sg.Graph)
		*ng = hdr
		ng.States = make([]sg.State, 0, 2*n)
		succBuf = make([]sg.Edge, 2*(nEdges+n))
		predBuf = make([]sg.Edge, 2*(nEdges+n))
		idx = make([]int32, 2*n)
		order = make([]int32, 0, n+n/2)
	}
	soff, poff := 0, 0
	for i := range idx {
		idx[i] = -1
	}
	intern := func(k int32) int32 {
		if i := idx[k]; i >= 0 {
			return i
		}
		s := int(k >> 1)
		code := g.States[s].Code
		if k&1 == 1 {
			code |= 1 << uint(xSig)
		}
		i := int32(ng.AddState(code))
		st := &ng.States[i]
		ds := len(g.States[s].Succ) + 1
		st.Succ = succBuf[soff : soff : soff+ds]
		soff += ds
		dp := len(g.States[s].Pred) + 1
		st.Pred = predBuf[poff : poff : poff+dp]
		poff += dp
		idx[k] = i
		order = append(order, k)
		return i
	}
	b2i := func(b bool) int32 {
		if b {
			return 1
		}
		return 0
	}

	ng.Initial = int(intern(int32(2*g.Initial) + b2i(labels[g.Initial].xValue())))

	for head := 0; head < len(order); head++ {
		k := order[head]
		s, x := int(k>>1), k&1 == 1
		from := int(idx[k])
		lab := labels[s]
		// x's own transitions.
		if lab == LR && !x {
			to := int(intern(k | 1))
			if err := ng.AddEdge(from, to, xSig, sg.Plus); err != nil {
				return nil, nil, err
			}
		}
		if lab == LF && x {
			to := int(intern(k &^ 1))
			if err := ng.AddEdge(from, to, xSig, sg.Minus); err != nil {
				return nil, nil, err
			}
		}
		// Original transitions.
		for _, e := range g.States[s].Succ {
			_, delayed := allowedEdge(lab, labels[e.To])
			if delayed {
				// up→1 fires only from the x=1 layer; down→0 only from
				// the x=0 layer.
				if x != labels[e.To].xValue() {
					continue
				}
			}
			to := int(intern(int32(2*e.To) + b2i(x)))
			if err := ng.AddEdge(from, to, e.Signal, e.Dir); err != nil {
				return nil, nil, err
			}
		}
	}
	if err := ng.CheckConsistency(); err != nil {
		return nil, nil, err
	}
	return ng, idx, nil
}

// Strategy selects how the MC violation seeds the SAT instance.
type Strategy int

// Insertion strategies, tried in order.
const (
	// PackLow seeds the target violation like SeparateLow and then
	// greedily adds the separation constraints of every other violation
	// (in either polarity) while the formula stays satisfiable — one
	// inserted signal then repairs as many violations as possible.
	PackLow Strategy = iota
	// PackHigh is PackLow with the target's polarity inverted.
	PackHigh
	// TriggerStrategy labels the violating excitation region "up": the
	// inserted signal becomes a fresh, persistent trigger of the
	// region's transition, which is delayed until x fires.
	TriggerStrategy
	// SeparateHigh labels the violating region 1 and the witness states
	// 0: the literal x separates the region's CFR from the states its
	// cover cube wrongly reaches.
	SeparateHigh
	// SeparateLow is SeparateHigh with inverted polarity.
	SeparateLow
	// Free leaves the labelling unseeded (pure enumeration).
	Free
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case PackLow:
		return "pack-low"
	case PackHigh:
		return "pack-high"
	case TriggerStrategy:
		return "trigger"
	case SeparateHigh:
		return "separate-high"
	case SeparateLow:
		return "separate-low"
	case Free:
		return "free"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Target selects the property the repair loop establishes.
type Target int8

// Repair targets.
const (
	// TargetMC (the default) inserts signals until the Monotonous Cover
	// requirement holds — the paper's synthesis procedure.
	TargetMC Target = iota
	// TargetCSC inserts signals only until Complete State Coding holds
	// (the weaker classical goal, sufficient for complex-gate
	// implementations but NOT for basic gates — see Example 2).
	TargetCSC
)

// Options configures the repair loop.
type Options struct {
	// MaxSignals bounds the number of inserted state signals (default 8).
	MaxSignals int
	// MaxModels bounds SAT model enumeration per strategy (default 128).
	MaxModels int
	// Strategies overrides the default strategy order.
	Strategies []Strategy
	// Target selects the property to establish (default TargetMC).
	Target Target
	// Workers bounds the worker pool of the repair loop's candidate
	// scoring (0 = GOMAXPROCS, 1 = sequential). Models come from one
	// canonical solver, so the worker count never changes the
	// synthesized netlist.
	Workers int
	// DisableLearntCarry turns off cross-round learnt-clause carrying.
	// Carried clauses are re-certified against the next round's own
	// formula by reverse unit propagation, so carrying never changes
	// which labellings are enumerated — this switch exists for the
	// differential test that proves it.
	DisableLearntCarry bool
}

func (o *Options) fill() {
	if o.MaxSignals == 0 {
		o.MaxSignals = 8
	}
	if o.MaxModels == 0 {
		o.MaxModels = 128
	}
	if o.Strategies == nil {
		o.Strategies = []Strategy{PackLow, PackHigh, TriggerStrategy, SeparateLow, SeparateHigh, Free}
	}
}

// Result reports the outcome of the repair loop.
type Result struct {
	G        *sg.Graph // the transformed graph satisfying MC
	Added    []string  // names of the inserted state signals
	Models   int       // SAT models examined over the whole run
	Report   *core.Report
	Strategy []Strategy // strategy that succeeded for each added signal

	// Search-pruning tallies over the whole run.
	Candidates int // label vectors actually expanded and scored
	Deduped    int // models skipped because they (or their mirror) were already scored this round
	Pruned     int // candidates abandoned by the branch-and-bound scoring budget

	// Cross-round clause carrying tallies.
	Carried     int // remapped learnt clauses offered to a later round's solver
	CarriedKept int // offered clauses the receiving solver certified and kept

	// SAT aggregates the search counters of every round's solver.
	SAT sat.Stats
}

// labelVars holds the CNF variables of one state's label: (v1, v0) with
// 0=(0,0), up=(0,1), 1=(1,1), down=(1,0).
type labelVars struct{ v1, v0 int }

// labelOf reads one state's label from the solver's last model.
func labelOf(s *sat.Solver, lv labelVars) Label {
	v1, v0 := s.Value(lv.v1), s.Value(lv.v0)
	switch {
	case !v1 && !v0:
		return L0
	case !v1 && v0:
		return LR
	case v1 && v0:
		return L1
	default:
		return LF
	}
}

// buildCNF encodes the graph-only labelling constraints: the edge
// rules, input properness and non-triviality. Strategy seeds are NOT
// part of the formula — they are passed to Solve as assumptions
// (assumptionsFor), so a single solver serves every conflict and
// strategy of one repair round and the clauses it learns carry across
// all of them instead of being rediscovered per pair. The label
// variables are allocated first — state i holds (2i+1, 2i+2) — which
// is the contract cross-round clause remapping relies on.
func buildCNF(s *sat.Solver, g *sg.Graph) []labelVars {
	vars := newLabelVars(s, g.NumStates())
	for st := range g.States {
		for _, e := range g.States[st].Succ {
			cl, n := edgeClauses(vars[st], vars[e.To], g.Input[e.Signal])
			for i := range cl[:n] {
				s.AddClause(cl[i][:]...)
			}
		}
	}
	addNonTriviality(s, vars)
	return vars
}

// newLabelVars allocates the label variables of n states: state i
// holds (2i+1, 2i+2) in a fresh solver.
func newLabelVars(s *sat.Solver, n int) []labelVars {
	vars := make([]labelVars, n)
	for i := range vars {
		vars[i] = labelVars{v1: s.NewVar(), v0: s.NewVar()}
	}
	return vars
}

// edgeClauses returns the clauses of one edge from a state labelled by
// f to a state labelled by t: the first n of cl, four on a non-input
// edge and six on an input edge.
//
// The (v1, v0) labels walk a 2-bit Gray code, 0=00 → up=01 → 1=11 →
// down=10, and an edge may keep its source's label or step to the next
// one (allowedEdge). From a stable source (v1 = v0) the step flips v0,
// so the target keeps the source's v1; from an excited source
// (v1 ≠ v0) it flips v1, so the target keeps the source's v0. The
// steps up→1 and down→0 are the delayed ones, which input properness
// forbids on an input edge, so there an excited source also keeps v1.
// Each clause is the resolvent of two forbidden-pair clauses that
// differ only in the target's other variable, so the clauses admit
// exactly the allowed label pairs, and each fires as soon as the
// source's label is known.
func edgeClauses(f, t labelVars, input bool) (cl [6][3]sat.Lit, n int) {
	f1, f0 := sat.Lit(f.v1), sat.Lit(f.v0)
	t1, t0 := sat.Lit(t.v1), sat.Lit(t.v0)
	cl = [6][3]sat.Lit{
		{f1, f0, -t1},  // from 0: v1 stays 0
		{-f1, -f0, t1}, // from 1: v1 stays 1
		{f1, -f0, t0},  // from up: v0 stays 1
		{-f1, f0, -t0}, // from down: v0 stays 0
		{f1, -f0, -t1}, // from up on an input edge: v1 stays 0
		{-f1, f0, t1},  // from down on an input edge: v1 stays 1
	}
	if input {
		return cl, 6
	}
	return cl, 4
}

// addNonTriviality requires at least one "up" state and one "down"
// state, through an auxiliary variable per state for each phase:
// up(s) ↔ ¬v1 ∧ v0 and down(s) ↔ v1 ∧ ¬v0. The auxiliaries are
// allocated after every label variable and are implied as soon as
// their state's label is known, so canonical branching never decides
// one.
func addNonTriviality(s *sat.Solver, vars []labelVars) {
	var ups, downs []sat.Lit
	for i := range vars {
		u := s.NewVar()
		s.AddClause(sat.Lit(-u), sat.Lit(-vars[i].v1))
		s.AddClause(sat.Lit(-u), sat.Lit(vars[i].v0))
		ups = append(ups, sat.Lit(u))
		d := s.NewVar()
		s.AddClause(sat.Lit(-d), sat.Lit(vars[i].v1))
		s.AddClause(sat.Lit(-d), sat.Lit(-vars[i].v0))
		downs = append(downs, sat.Lit(d))
		// Tie the aux var upward so blocked models differ meaningfully.
		s.AddClause(sat.Lit(u), sat.Lit(vars[i].v1), sat.Lit(-vars[i].v0))
		s.AddClause(sat.Lit(d), sat.Lit(-vars[i].v1), sat.Lit(vars[i].v0))
	}
	s.AddClause(ups...)
	s.AddClause(downs...)
}

// conflict is one separation problem for the inserted signal: the states
// of a violating excitation region (or one half of a CSC clash) versus
// the witness states the region's cube must be kept away from.
type conflict struct {
	er    []int
	wit   []int
	label string
}

// mcConflicts derives conflicts from the MC violations of a report.
func mcConflicts(g *sg.Graph, rep *core.Report) []conflict {
	var out []conflict
	for _, v := range rep.Violations() {
		out = append(out, conflict{er: v.ER.States, wit: v.States, label: g.ERLabel(v.ER)})
	}
	return out
}

// cscConflicts derives conflicts from CSC violations: each clashing
// state pair must end up with different codes.
func cscConflicts(g *sg.Graph) []conflict {
	var out []conflict
	for _, v := range g.CSCViolations() {
		out = append(out, conflict{
			er:    []int{v.A},
			wit:   []int{v.B},
			label: fmt.Sprintf("CSC(s%d,s%d)", v.A, v.B),
		})
	}
	return out
}

// assumptionsFor renders one strategy's seeding constraints on a
// conflict as assumption literals over the label variables — the
// assumption-scoped equivalent of the unit-clause seeds that used to
// force a CNF rebuild per conflict×strategy pair. Every strategy seed
// is a conjunction of literals: a seeded state is pinned either to a
// single label (both variables) or to a half of the label cycle that
// one variable polarity captures exactly ({0, down} ↔ ¬v0 and
// {1, down} ↔ v1 under the (v1, v0) encoding).
func assumptionsFor(strat Strategy, c conflict, vars []labelVars) []sat.Lit {
	switch strat {
	case TriggerStrategy:
		// ER states labelled "up": (¬v1, v0).
		out := make([]sat.Lit, 0, 2*len(c.er))
		for _, s := range c.er {
			out = append(out, sat.Lit(-vars[s].v1), sat.Lit(vars[s].v0))
		}
		return out
	case SeparateHigh, PackHigh:
		return separationAssumptions(vars, c, false)
	case SeparateLow, PackLow:
		return separationAssumptions(vars, c, true)
	default: // Free: pure enumeration.
		return nil
	}
}

// separationAssumptions renders one conflict's separate-low (or
// separate-high) seeds as assumption literals: region states pinned to
// the base label, witnesses pinned to the opposite half of the label
// cycle. Low polarity: region = 0 (¬v1 ∧ ¬v0), witnesses ∈ {1, down}
// (v1). High polarity: region = 1 (v1 ∧ v0), witnesses ∈ {0, down}
// (¬v0).
func separationAssumptions(vars []labelVars, c conflict, low bool) []sat.Lit {
	var out []sat.Lit
	for _, s := range c.er {
		if low {
			out = append(out, sat.Lit(-vars[s].v1), sat.Lit(-vars[s].v0))
		} else {
			out = append(out, sat.Lit(vars[s].v1), sat.Lit(vars[s].v0))
		}
	}
	for _, s := range c.wit {
		if low {
			out = append(out, sat.Lit(vars[s].v1))
		} else {
			out = append(out, sat.Lit(-vars[s].v0))
		}
	}
	return out
}

// Repair inserts state signals until the graph satisfies the target
// property (Monotonous Cover by default, Complete State Coding with
// TargetCSC). The input graph must be output semi-modular. It is
// RepairTable over a fresh region table of g.
func Repair(g *sg.Graph, opts Options) (*Result, error) {
	return RepairTable(sg.NewRegionTable(g), opts)
}

// RepairTable is Repair on a graph already decomposed into its region
// table (synth.Analyze builds one): the output semi-modularity check
// runs on the table's index, and round 0 analyzes the input graph from
// the table's regions instead of decomposing it again. Later rounds
// decompose the graphs they insert into. The table is only read.
func RepairTable(t *sg.RegionTable, opts Options) (*Result, error) {
	opts.fill()
	g := t.Idx.G
	if !t.Idx.OutputSemiModular() {
		return nil, fmt.Errorf("encode: graph is not output semi-modular; no SI implementation exists")
	}
	targetName := "MC"
	score := func(g2 *sg.Graph, rep *core.Report) int { return len(rep.Violations()) }
	conflictsOf := mcConflicts
	if opts.Target == TargetCSC {
		targetName = "CSC"
		score = func(g2 *sg.Graph, rep *core.Report) int { return len(g2.CSCViolations()) }
		conflictsOf = func(g2 *sg.Graph, rep *core.Report) []conflict { return cscConflicts(g2) }
	}

	res := &Result{G: g}
	var carried [][]sat.Lit // remapped learnt clauses from the previous round
	// The chunk slots, allocated by the first round that scores a
	// candidate and reused by every later round.
	var slots *[scoreChunkMax]slotScratch
	for round := 0; ; round++ {
		rsp := obs.Start("repair.round", obs.A("round", round), obs.A("spec", g.Name))
		var a *core.Analyzer
		if round == 0 {
			a = core.NewAnalyzerFrom(t)
		} else {
			a = core.NewAnalyzer(res.G)
		}
		rep := a.CheckGraph()
		res.Report = rep
		if score(res.G, rep) == 0 {
			rsp.SetAttr("satisfied", true)
			rsp.End()
			publishRepair(res, round)
			return res, nil
		}
		if round >= opts.MaxSignals {
			rsp.End()
			publishRepair(res, round)
			return nil, fmt.Errorf("encode: %s still violated after inserting %d signals:\n%s",
				targetName, len(res.Added), rep)
		}
		confl := conflictsOf(res.G, rep)
		rsp.SetAttr("conflicts", len(confl))
		obs.Info("repair round", "spec", g.Name, "round", round, "conflicts", len(confl))
		if obs.SinksEnabled() {
			obs.Publish("repair_round", g.Name, "round", round, "conflicts", len(confl))
		}
		name := freshSignalName(res.G, len(res.Added))

		cur := score(res.G, rep)
		// Signals violating in the current graph, plus the inserted
		// signal itself, are where a candidate's residual violations
		// cluster — scanning them first lets budgeted scoring abandon
		// bad candidates after a couple of signals.
		var hot []string
		hotSeen := map[int]bool{}
		for i := range rep.Results {
			if r := &rep.Results[i]; r.Violation != nil && !hotSeen[r.Signal] {
				hotSeen[r.Signal] = true
				hot = append(hot, res.G.Signals[r.Signal])
			}
		}
		hot = append(hot, name)
		search := newRoundSearch(res.G, name, opts, hot)
		search.scratch = slots
		if len(carried) > 0 {
			// Rehydrate: the previous round's learnt clauses, remapped
			// onto this round's variables, re-certified against this
			// round's own formula by reverse unit propagation. Clauses
			// the new formula does not entail are dropped at the door,
			// so carrying is a pure accelerator.
			kept, _ := search.solver.ImportLearnts(carried)
			res.Carried += len(carried)
			res.CarriedKept += kept
		}
		var best []Label
		bestScore, bestStates, bestStrat := cur, 0, Free
		sweep := func() {
			for _, c := range confl {
				for _, strat := range opts.Strategies {
					labels, count, states := search.tryInsert(c, confl, strat, cur)
					better := labels != nil && (count < bestScore || best == nil ||
						(count == bestScore && states < bestStates))
					if better {
						best, bestScore, bestStates, bestStrat = labels, count, states, strat
						if count == 0 {
							break
						}
					}
				}
				if bestScore == 0 {
					break
				}
			}
		}
		sweep()
		switch {
		case best == nil:
			// The fast sweep's stall cutoff found nothing. Before declaring
			// the round unrepairable, sweep again without the cutoff or the
			// per-pair model cap: global blocking means the rescue pass
			// resumes each pair's enumeration exactly where the fast pass
			// abandoned it, so no candidate is scored twice. The trigger is
			// itself deterministic, so the two-tier search stays
			// reproducible at any worker count.
			search.noStall, search.uncap = true, true
			sweep()
		case bestScore > 0 && search.models < smallRound:
			// The fast sweep was cheap (the label space is nearly
			// exhausted at a handful of models per pair) yet no candidate
			// reached zero conflicts. On instances this small the stall
			// cutoff saves nothing but can cost real quality — the paper's
			// single-signal repairs hide past the cutoff horizon — so
			// finish the enumeration under the ordinary model cap.
			search.noStall = true
			sweep()
		}
		res.Models += search.models
		res.Candidates += search.candidates
		res.Deduped += search.deduped
		res.Pruned += search.pruned
		res.SAT.Add(search.solver.Stats())
		slots = search.scratch
		if best == nil {
			rsp.End()
			publishRepair(res, round)
			return nil, fmt.Errorf("encode: no insertion reduces the %d %s conflicts of %s",
				len(confl), targetName, res.G.Name)
		}
		// The winner was scored in a chunk slot; expand it once more,
		// into memory of its own.
		next, images, err := expand(res.G, best, search.next)
		if err != nil {
			rsp.End()
			publishRepair(res, round)
			return nil, err
		}
		carried = nil
		if !opts.DisableLearntCarry {
			carried = search.carryOut(images)
		}
		res.G = next
		res.Added = append(res.Added, name)
		res.Strategy = append(res.Strategy, bestStrat)
		rsp.SetAttr("inserted", name)
		rsp.SetAttr("strategy", bestStrat.String())
		rsp.End()
	}
}

// Cross-round carry caps: only short, low-LBD clauses are worth
// remapping and re-certifying against the grown formula.
const (
	carryMaxLen = 10
	carryMaxLBD = 8
	carryMax    = 1024
)

// carryOut exports the round's learnt knowledge and remaps it onto the
// variable space of the NEXT round, whose CNF is built over the chosen
// expansion: old state s maps to label variables (2s+1, 2s+2), its
// unique image i = images[s] in the expanded graph (expand) to
// (2i+1, 2i+2). Clauses touching split states, auxiliary variables, or
// round-local blocking knowledge that does not survive the remap are
// dropped here; whatever the next formula does not entail is dropped by
// its own import certification.
func (rs *roundSearch) carryOut(images []int) [][]sat.Lit {
	exported := rs.solver.ExportLearnts(carryMaxLen, carryMaxLBD, carryMax)
	maxVar := 2 * rs.g.NumStates()
	out := make([][]sat.Lit, 0, len(exported))
next:
	for _, cl := range exported {
		mapped := make([]sat.Lit, len(cl))
		for i, l := range cl {
			v := l.Var()
			if v > maxVar {
				continue next // auxiliary up/down variable
			}
			state := (v - 1) / 2
			img := images[state]
			if img < 0 {
				continue next // split state: no unique counterpart
			}
			nv := 2*img + 1 + (v-1)%2
			if l.Sign() {
				mapped[i] = sat.Lit(nv)
			} else {
				mapped[i] = sat.Lit(-nv)
			}
		}
		out = append(out, mapped)
	}
	return out
}

// publishRepair reports one repair run's tallies to the observability
// layer (a no-op without an enabled observer).
func publishRepair(res *Result, rounds int) {
	o := obs.Get()
	if o == nil {
		return
	}
	m := o.Metrics
	m.Counter("encode_rounds_total").Add(int64(rounds))
	m.Counter("encode_inserted_signals_total").Add(int64(len(res.Added)))
	m.Counter("encode_models_total").Add(int64(res.Models))
	m.Counter("encode_candidates_total").Add(int64(res.Candidates))
	m.Counter("encode_candidates_deduped_total").Add(int64(res.Deduped))
	m.Counter("encode_candidates_pruned_total").Add(int64(res.Pruned))
	m.Counter("encode_learnts_carried_total").Add(int64(res.Carried))
	m.Counter("encode_learnts_carried_kept_total").Add(int64(res.CarriedKept))
	obs.Publish("repair_done", res.G.Name,
		"rounds", rounds, "added", len(res.Added),
		"models", res.Models, "candidates", res.Candidates)
	publishSAT(res)
}

// publishSAT reports the run's SAT search statistics, aggregated over
// every round — a run spans several rounds, each with its own solver,
// so a per-solver snapshot would under-count (a no-op without an
// enabled observer).
func publishSAT(res *Result) {
	o := obs.Get()
	if o == nil {
		return
	}
	m := o.Metrics
	m.Counter("sat_decisions_total").Add(res.SAT.Decisions)
	m.Counter("sat_propagations_total").Add(res.SAT.Propagations)
	m.Counter("sat_conflicts_total").Add(res.SAT.Conflicts)
	m.Counter("sat_restarts_total").Add(res.SAT.Restarts)
	obs.Publish("sat_stats", res.G.Name,
		"decisions", res.SAT.Decisions, "conflicts", res.SAT.Conflicts,
		"propagations", res.SAT.Propagations, "restarts", res.SAT.Restarts)
}

// freshSignalName picks a state-signal name not colliding with any
// existing signal of the graph (the specification may itself use names
// like x1).
func freshSignalName(g *sg.Graph, k int) string {
	for i := k; ; i++ {
		name := fmt.Sprintf("x%d", i)
		if g.SignalIndex(name) < 0 {
			return name
		}
		// Fall back to a distinct prefix when the x-namespace is taken.
		name = fmt.Sprintf("csc%d", i)
		if g.SignalIndex(name) < 0 {
			return name
		}
	}
}

// scoreChunkMax caps the number of unique candidate labellings
// enumerated between scoring fan-outs. Chunks follow the progressive
// schedule 1, 2, 4, 8, 16, 16, … (chunkSize): the first candidates are
// scored almost immediately, so the incumbent — and with it the
// branch-and-bound budget every later candidate is scored under —
// tightens as early as possible. The schedule is a fixed function of
// the chunk index — NOT of the worker count — so sequential and
// parallel runs enumerate exactly the same models, prune with exactly
// the same budgets, and select byte-identical candidates.
const scoreChunkMax = 16

func chunkSize(idx int) int {
	if idx < 4 {
		return 1 << uint(idx)
	}
	return scoreChunkMax
}

// stallWindow stops a pair's enumeration after this many consecutively
// scored unique candidates without an improvement of the incumbent.
// Like the chunk schedule it is a pure function of the canonical model
// sequence, so the cutoff is identical at every worker count.
const stallWindow = 8

// smallRound is the fast-sweep model count below which a round that
// failed to reach zero conflicts is re-swept without the stall cutoff:
// an instance whose whole round enumerates this few labellings is cheap
// to finish exhaustively, and on such instances the cutoff is the only
// thing standing between the search and the paper's minimal insertions.
const smallRound = 200

// roundSearch is the candidate-evaluation engine of one repair round.
// It owns the round's canonical SAT solver (built once from the graph;
// per-strategy seeds are assumptions, so learned clauses carry across
// every conflict and strategy of the round), the mirror-canonical
// seen-set that dedupes equivalent label vectors across strategies,
// and the pruning tallies.
type roundSearch struct {
	g    *sg.Graph
	name string
	opts Options

	solver    *sat.Solver
	vars      []labelVars
	blockVars []int
	seen      map[string]struct{} // canonical label-vector keys scored this round
	hot       []string            // scan-first signals for budgeted scoring
	next      sg.Graph            // the header every expansion of the round shares
	key       []byte              // the current model's label vector, one byte per state
	mirror    []byte              // its mirror image (canonicalKey)

	models     int // SAT models enumerated
	candidates int // unique label vectors expanded and scored
	deduped    int // models skipped by the mirror-canonical seen-set
	pruned     int // candidates abandoned at the scoring budget

	// noStall disables the stall cutoff for a rescue sweep; uncap
	// additionally lifts the per-pair model cap for the exhaustive
	// rescue of a round whose fast sweep found no candidate at all.
	noStall bool
	uncap   bool

	// scratch holds one slot of reusable scoring memory per chunk item:
	// slot i is touched only by the worker scoring chunk item i, and a
	// chunk never exceeds scoreChunkMax candidates. It is allocated when
	// the search first scores, unless the repair run hands in the slots
	// of an earlier round.
	scratch *[scoreChunkMax]slotScratch
}

func newRoundSearch(g *sg.Graph, name string, opts Options, hot []string) *roundSearch {
	solver := sat.NewWith(sat.Config{Canonical: true})
	vars := buildCNF(solver, g)
	blockVars := make([]int, 0, 2*len(vars))
	for _, lv := range vars {
		blockVars = append(blockVars, lv.v1, lv.v0)
	}
	return &roundSearch{
		g: g, name: name, opts: opts,
		solver: solver, vars: vars, blockVars: blockVars,
		seen: make(map[string]struct{}), hot: hot,
		next: expansionOf(g, name),
		key:  make([]byte, len(vars)), mirror: make([]byte, len(vars)),
	}
}

// canonicalKey reads the solver's last model into the label vector
// key and returns the lexicographically smaller of it and its mirror
// image, in the search's own buffers (valid until the next call). The
// mirror labelling — 0↔1, up↔down — is always valid when the original
// is (the label cycle and its delayed edges map onto themselves),
// expands to an isomorphic graph with the inserted signal's polarity
// inverted, and scores identically; under the strict-improvement
// selection rule a mirror can therefore never displace its twin, so
// scoring one member of each mirror orbit is enough.
func (rs *roundSearch) canonicalKey() []byte {
	for i, lv := range rs.vars {
		b := byte(labelOf(rs.solver, lv))
		rs.key[i] = b
		rs.mirror[i] = (b + 2) & 3 // L0↔L1, LR↔LF
	}
	if string(rs.mirror) < string(rs.key) {
		return rs.mirror
	}
	return rs.key
}

// scored is one candidate's verdict. A nil graph marks an invalid
// labelling (expansion error or lost output semi-modularity); pruned
// marks a count truncated at the branch-and-bound budget (the real
// count is at least the reported one).
type scored struct {
	g      *sg.Graph
	count  int
	pruned bool
}

// score expands one labelling and counts the remaining conflicts,
// abandoning the count at budget (candidates at or above the incumbent
// can never be selected, so their exact count is irrelevant). It runs
// on pool workers: everything it touches is either task-local or a
// read-only view of the round's graph. The scratch is owned by this
// call for its duration (one chunk slot, one worker): the expansion,
// its index and its lazy analyzer are rebuilt there in place, and the
// returned graph aliases it, valid only until the slot's next use.
func (rs *roundSearch) score(labels []Label, budget int, scr *slotScratch) scored {
	g2, _, err := expandInto(rs.g, labels, rs.next, scr)
	if err != nil {
		return scored{}
	}
	ix := &scr.ix
	ix.Rebuild(g2)
	if !ix.OutputSemiModular() {
		return scored{}
	}
	if rs.opts.Target == TargetCSC {
		return scored{g: g2, count: len(ix.CSCViolations())}
	}
	scr.a.Reset(ix)
	n := scr.a.CountViolationsBudget(budget, rs.hot...)
	return scored{g: g2, count: n, pruned: n >= budget}
}

// tryInsert enumerates labellings for one conflict and strategy,
// returning the labelling whose expansion has the lowest remaining
// conflict count (only when strictly below the current score; ties
// broken towards smaller expansions), that count, and the expansion's
// state count. Model enumeration stays serial on the round's shared
// solver — it is cheap next to scoring — while each chunk of unique
// models fans its Expand + semi-modularity + conflict-count scoring
// out over the worker pool. The reduction walks candidates in model
// order with budgets fixed at chunk boundaries, so the selection is
// deterministic regardless of worker count or completion order.
//
// Blocking is global: the canonical solver enumerates each labelling
// of the round exactly once, whichever pair first reaches it, and
// later pairs' enumerations resume past everything already blocked
// instead of re-deriving (and re-blocking) the same models under a
// fresh selector. The seen-set still guards scoring — mirror twins
// arrive as distinct models but share a canonical key.
//
// Within one pair every Solve repeats the same assumptions, so the
// solver resumes each call from the model BlockModel just blocked
// (sat's resumable enumeration) rather than re-descending from level
// 0; a packing probe or the next pair, with other assumptions, starts
// from level 0. The label variables are the blocking projection, and
// the auxiliary up/down variables are functions of them that are never
// decided, so BlockModel always blocks by the short decision clause
// here, and resumes whenever the search decided beyond the assumptions.
func (rs *roundSearch) tryInsert(c conflict, all []conflict, strat Strategy, target int) ([]Label, int, int) {
	solver, vars := rs.solver, rs.vars
	assume := assumptionsFor(strat, c, vars)
	if strat == Free {
		// Mirror-orbit pin: every labelling or its mirror puts state 0
		// in {0, up} (¬v1), and the Free enumeration — whose empty seed
		// is mirror-symmetric — loses nothing by only visiting that
		// half of the space. Seeded strategies break the symmetry, so
		// only Free may pin.
		assume = append(assume, sat.Lit(-vars[0].v1))
	}

	// Packing strategies: greedily commit the separation constraints of
	// the other conflicts while the formula stays satisfiable, so one
	// signal repairs as many conflicts as possible.
	if strat == PackLow || strat == PackHigh {
		if !solver.Solve(assume...) {
			return nil, target, 0
		}
		for i := range all {
			c2 := all[i]
			if c2.label == c.label {
				continue
			}
			for _, low := range []bool{strat == PackLow, strat != PackLow} {
				cand := append(append([]sat.Lit(nil), assume...), separationAssumptions(vars, c2, low)...)
				if solver.Solve(cand...) {
					assume = cand
					break
				}
			}
		}
	}

	var best []Label
	bestCount, bestStates := target, 0
	models, maxModels := 0, rs.opts.MaxModels
	exhausted, stop := false, false
	stall := 0
	window := stallWindow
	if rs.noStall {
		window = int(^uint(0) >> 1)
	}
	if rs.uncap {
		// Exhaustive rescue: press each pair's enumeration to exhaustion
		// before giving the round up.
		maxModels = int(^uint(0) >> 1)
	}
	for chunkIdx := 0; !stop && !exhausted && models < maxModels && stall < window; chunkIdx++ {
		// Enumerate the next chunk of unique label vectors. The chunk is
		// capped by the remaining stall allowance: a pair that has gone
		// window-1 candidates without improving may enumerate only one
		// more, not a full chunk, so the cutoff cannot overshoot.
		limit := chunkSize(chunkIdx)
		if rem := window - stall; rem < limit {
			limit = rem
		}
		var chunk [][]Label
		for models < maxModels && len(chunk) < limit {
			if !solver.Solve(assume...) {
				exhausted = true
				break
			}
			models++
			ck := rs.canonicalKey()
			if !solver.BlockModel(rs.blockVars...) {
				exhausted = true
			}
			if _, dup := rs.seen[string(ck)]; dup {
				// A mirror twin of an already-scored labelling: its
				// orbit already speaks for it in this round's selection.
				rs.deduped++
				continue
			}
			rs.seen[string(ck)] = struct{}{}
			labels := make([]Label, len(rs.key))
			for i, b := range rs.key {
				labels[i] = Label(b)
			}
			chunk = append(chunk, labels)
		}
		if len(chunk) == 0 {
			continue
		}
		// Score the chunk in parallel. The budget is the incumbent at
		// the chunk boundary — deterministic, unlike a live-updated
		// incumbent, which would make pruning depend on completion
		// order. Truncated candidates have a true count above every
		// incumbent this chunk's reduction can reach, so they are
		// never selectable and the truncation is invisible to the
		// selection.
		budget := bestCount + 1
		scores := make([]scored, len(chunk))
		if rs.scratch == nil {
			rs.scratch = new([scoreChunkMax]slotScratch)
		}
		par.ForEachHook(len(chunk), rs.opts.Workers, func(i int) {
			scores[i] = rs.score(chunk[i], budget, &rs.scratch[i])
		}, obs.TaskHook("encode.score"))
		rs.candidates += len(chunk)
		for i, sc := range scores {
			improved := false
			if sc.g != nil {
				switch states := sc.g.NumStates(); {
				case sc.pruned:
					rs.pruned++
				case sc.count >= budget:
					// Exact but not competitive (CSC scoring is never
					// truncated); above the chunk budget it can beat no
					// incumbent this reduction reaches.
				case sc.count < bestCount || (best != nil && sc.count == bestCount && states < bestStates):
					best, bestCount, bestStates = chunk[i], sc.count, states
					improved = true
				}
			}
			if improved {
				stall = 0
				if bestCount == 0 && bestStates <= rs.g.NumStates()+2 {
					stop = true // minimal possible insertion footprint
					break
				}
			} else if sc.g != nil {
				// Only valid-but-uncompetitive candidates spend the stall
				// budget: invalid labellings fail in Expand long before
				// the conflict count runs, so they say nothing about
				// whether this pair's region is worth mining further.
				stall++
			}
		}
	}
	rs.models += models
	return best, bestCount, bestStates
}

// DescribeLabels renders a labelling for diagnostics.
func DescribeLabels(g *sg.Graph, labels []Label) string {
	var b strings.Builder
	byLabel := map[Label][]int{}
	for s, l := range labels {
		byLabel[l] = append(byLabel[l], s)
	}
	for _, l := range []Label{LR, L1, LF, L0} {
		states := byLabel[l]
		sort.Ints(states)
		fmt.Fprintf(&b, "%-4s:", l)
		for _, s := range states {
			fmt.Fprintf(&b, " s%d", s)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
