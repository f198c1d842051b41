package core_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/benchdata"
	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/sg"
	"repro/internal/stg"
)

// This file retains a map-based reference implementation of the three
// Monotonous Cover conditions (Definition 17) and of the correct-cover
// test (Definition 16), and checks that the Analyzer, which tests a
// cube against a state's code through a (care, val) mask pair, returns
// identical verdicts on the paper figures, the Table-1 benchmarks,
// random series-parallel specifications and a 64-signal ring.

func diffGraphs(t *testing.T) map[string]*sg.Graph {
	t.Helper()
	out := map[string]*sg.Graph{
		"fig1": benchdata.Fig1SG(),
		"fig4": benchdata.Fig4SG(),
	}
	for _, e := range benchdata.Table1 {
		g, err := stg.BuildSG(e.STG())
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name] = g
	}
	for seed := int64(0); seed < 15; seed++ {
		spec := benchdata.GenRandomSpec(seed, 3)
		g, err := stg.BuildSG(spec.Net)
		if err != nil {
			t.Fatal(err)
		}
		out[spec.Net.Name] = g
	}
	g, err := stg.BuildSG(ring(64))
	if err != nil {
		t.Fatal(err)
	}
	out["ring64"] = g
	return out
}

// ring is the k-signal sequence s0+ … s(k−1)+ s0− … s(k−1)−, with s0 an
// input: a Johnson counter of 2k states. At k = 64 its codes use every
// bit of the word, so cover tests meet bit 63 and the full care mask.
func ring(k int) *stg.STG {
	b := stg.NewBuilder(fmt.Sprintf("ring%d", k))
	var seq []string
	for i := 0; i < k; i++ {
		kind := stg.Output
		if i == 0 {
			kind = stg.Input
		}
		b.Signal(fmt.Sprintf("s%d", i), kind)
		seq = append(seq, fmt.Sprintf("s%d+", i))
	}
	for i := 0; i < k; i++ {
		seq = append(seq, fmt.Sprintf("s%d-", i))
	}
	for i, tr := range seq {
		b.Arc(tr, seq[(i+1)%len(seq)])
	}
	b.MarkBetween(seq[len(seq)-1], seq[0])
	return b.Build()
}

// refCovers evaluates cube coverage of a state directly from the
// graph's per-state values — no precomputed minterm table.
func refCovers(g *sg.Graph, c cube.Cube, s int) bool {
	m := make([]bool, g.NumSignals())
	for b := range m {
		m[b] = g.Value(s, b)
	}
	return c.ContainsMinterm(m)
}

// refCheckMC is the seed revision's map-based verdict for Definition 17:
// which MC condition (if any) cube c violates on the i-th excitation
// region of regs.
func refCheckMC(g *sg.Graph, regs *sg.Regions, i int, c cube.Cube) core.ViolationKind {
	er := regs.ER[i]
	// Condition (1): cover all ER states.
	for _, s := range er.States {
		if !refCovers(g, c, s) {
			return core.NotCovering
		}
	}
	// CFR as a map set: ER ∪ following QR.
	cfr := map[int]bool{}
	for _, s := range er.States {
		cfr[s] = true
	}
	if j := regs.QRAfter[i]; j >= 0 {
		for _, s := range regs.QR[j].States {
			cfr[s] = true
		}
	}
	// Condition (2): no rising edge of c inside the CFR.
	for s := range cfr {
		if refCovers(g, c, s) {
			continue
		}
		for _, e := range g.States[s].Succ {
			if cfr[e.To] && refCovers(g, c, e.To) {
				return core.NonMonotonic
			}
		}
	}
	// Condition (3): cover no reachable state outside the CFR.
	for s := 0; s < g.NumStates(); s++ {
		if !cfr[s] && refCovers(g, c, s) {
			return core.OutsideCFR
		}
	}
	return core.OK
}

// refIncorrect lists the states cube c covers where the excitation
// function of er's signal must be 0 (Definition 16): for an up-region
// the signal excited at 1 or stable at 0, dually for a down-region.
func refIncorrect(g *sg.Graph, er *sg.Region, c cube.Cube) []int {
	var bad []int
	for s := 0; s < g.NumStates(); s++ {
		v, ex := g.Value(s, er.Signal), g.Excited(s, er.Signal)
		forbidden := v && ex || !v && !ex
		if er.Dir == sg.Minus {
			forbidden = !forbidden
		}
		if forbidden && refCovers(g, c, s) {
			bad = append(bad, s)
		}
	}
	return bad
}

// refCoverCube is the canonical cover cube by Definition 15: a literal
// for every signal ordered with respect to er, at its value in er's
// first state.
func refCoverCube(g *sg.Graph, er *sg.Region) cube.Cube {
	c := cube.NewFull(g.NumSignals())
	for b := range g.Signals {
		if g.Ordered(er, b) {
			lit := cube.Zero
			if g.Value(er.States[0], b) {
				lit = cube.One
			}
			c.Set(b, lit)
		}
	}
	return c
}

func kindOf(v *core.Violation) core.ViolationKind {
	if v == nil {
		return core.OK
	}
	return v.Kind
}

func TestDifferentialCheckMCVsMapReference(t *testing.T) {
	// For every excitation region of every non-input signal, compare the
	// Analyzer's MC and correct-cover verdicts against the map-based
	// reference on a family of candidate cubes: the canonical cover
	// cube, every single-literal weakening of it, the unconstrained
	// cube, the minterm of the region's first state (a literal on every
	// signal) and a cube holding an empty literal (which covers nothing).
	sawRing := false
	for name, g := range diffGraphs(t) {
		a := core.NewAnalyzer(g)
		sawRing = sawRing || g.NumSignals() == 64
		for sig := range g.Signals {
			if g.Input[sig] {
				continue
			}
			regs := a.Regs[sig]
			for i, er := range regs.ER {
				if c := a.CoverCube(er); !c.Equal(refCoverCube(g, er)) {
					t.Fatalf("%s: %s cover cube %s, reference %s", name, g.ERLabel(er), c, refCoverCube(g, er))
				}
				mt := a.MintermCube(er.States[0])
				if mt.LiteralCount() != g.NumSignals() || !refCovers(g, mt, er.States[0]) {
					t.Fatalf("%s: minterm cube %s of s%d", name, mt, er.States[0])
				}
				empty := cube.NewFull(g.NumSignals())
				empty.Set(g.NumSignals()-1, cube.Empty)
				cands := []cube.Cube{a.CoverCube(er), cube.NewFull(g.NumSignals()), mt, empty}
				for _, l := range cands[0].Literals() {
					c := cands[0].Clone()
					c.Set(l, cube.Full)
					cands = append(cands, c)
				}
				for _, c := range cands {
					got := kindOf(a.CheckMC(er, c))
					want := refCheckMC(g, regs, i, c)
					if got != want {
						t.Fatalf("%s: %s cube %s: verdict %v, reference %v",
							name, g.ERLabel(er), c.StringNamed(g.Signals), got, want)
					}
					var gotBad []int
					if v := a.CheckCorrectCover(er, c); v != nil {
						gotBad = v.States
					}
					if wantBad := refIncorrect(g, er, c); !slices.Equal(gotBad, wantBad) {
						t.Fatalf("%s: %s cube %s: incorrectly covered %v, reference %v",
							name, g.ERLabel(er), c.StringNamed(g.Signals), gotBad, wantBad)
					}
				}
			}
		}
	}
	if !sawRing {
		t.Fatal("no 64-signal graph among the inputs")
	}
}

// The budgeted count is the repair loop's scorer and CheckGraph the
// verdict a synthesis reports; they must agree. Without a budget the
// count is the number of violating regions; with budget b it is exact
// below b and at least b otherwise.
func TestCountViolationsBudgetMatchesCheckGraph(t *testing.T) {
	for name, g := range diffGraphs(t) {
		checkBudgetedCount(t, name, g)
	}
}

func checkBudgetedCount(t *testing.T, name string, g *sg.Graph) {
	t.Helper()
	want := len(core.NewAnalyzerN(g, 1).CheckGraph().Violations())
	ix := sg.NewIndex(g)
	if got := core.NewAnalyzerLazy(ix).CountViolationsBudget(0); got != want {
		t.Fatalf("%s: count %d, CheckGraph %d violations", name, got, want)
	}
	for b := 1; b <= want+1; b++ {
		got := core.NewAnalyzerLazy(ix).CountViolationsBudget(b)
		if want < b && got != want || want >= b && got < b {
			t.Fatalf("%s: count at budget %d is %d, CheckGraph %d violations", name, b, got, want)
		}
	}
}

func TestDifferentialCheckGraphCubesVsMapReference(t *testing.T) {
	// Every MC cube the full search settles on must be a valid
	// monotonous cover under the map-based reference as well. Cubes
	// shared by several regions of a signal (generalized MC) and
	// degenerate wire cubes answer to weaker conditions and are skipped.
	for name, g := range diffGraphs(t) {
		a := core.NewAnalyzer(g)
		rep := a.CheckGraph()
		uses := map[string]int{}
		for _, res := range rep.Results {
			if res.Violation == nil {
				uses[res.Cube.String()]++
			}
		}
		for _, res := range rep.Results {
			if res.Violation != nil || res.Degenerate || uses[res.Cube.String()] > 1 {
				continue
			}
			regs := a.Regs[res.Signal]
			i := -1
			for j, er := range regs.ER {
				if er == res.ER {
					i = j
				}
			}
			if want := refCheckMC(g, regs, i, res.Cube); want != core.OK {
				t.Fatalf("%s: %s: accepted cube %s fails the reference check: %v",
					name, g.ERLabel(res.ER), res.Cube.StringNamed(g.Signals), want)
			}
		}
	}
}

// refWireOf is WireOf by its definition: the literal pairs (b, b') and
// (b', b) in signal order, each tested on every ER state and against
// the characteristic sets of Definition 13.
func refWireOf(g *sg.Graph, a *core.Analyzer, sig int) (core.Wire, bool) {
	regs := a.Regs[sig]
	if len(regs.ER) == 0 {
		return core.Wire{}, false
	}
	sets := a.SetsOf(sig)
	for b := range g.Signals {
		if b == sig {
			continue
		}
		for _, inverted := range []bool{false, true} {
			up, down := cube.One, cube.Zero
			if inverted {
				up, down = down, up
			}
			ok := true
			for _, er := range regs.ER {
				lit, forbidden := up, []sg.StateSet{sets.OneStar, sets.Zero}
				if er.Dir == sg.Minus {
					lit, forbidden = down, []sg.StateSet{sets.ZeroStar, sets.One}
				}
				c := cube.NewFull(g.NumSignals())
				c.Set(b, lit)
				for _, s := range er.States {
					ok = ok && refCovers(g, c, s)
				}
				for _, set := range forbidden {
					set.ForEach(func(s int) { ok = ok && !refCovers(g, c, s) })
				}
			}
			if ok {
				return core.Wire{Of: b, Inverted: inverted}, true
			}
		}
	}
	return core.Wire{}, false
}

func TestDifferentialWireOfVsReference(t *testing.T) {
	buf, err := stg.BuildSG(stg.MustParse(`
.model buf
.inputs x
.outputs y
.graph
x+ y+
y+ x-
x- y-
y- x+
.marking { <y-,x+> }
.end
`))
	if err != nil {
		t.Fatal(err)
	}
	graphs := diffGraphs(t)
	graphs["buf"] = buf
	wires := 0
	for name, g := range graphs {
		a := core.NewAnalyzer(g)
		for sig := range g.Signals {
			if g.Input[sig] {
				continue
			}
			w, ok := a.WireOf(sig)
			rw, rok := refWireOf(g, a, sig)
			if ok != rok || ok && w != rw {
				t.Fatalf("%s/%s: WireOf %+v %v, reference %+v %v", name, g.Signals[sig], w, ok, rw, rok)
			}
			if ok {
				wires++
			}
		}
	}
	if wires == 0 {
		t.Fatal("no signal among the inputs is a wire")
	}
}

// refFindMC is FindMC by its definition on the map reference: the
// canonical cover cube when it is a monotonous cover; otherwise, when it
// fails only monotonicity, the first subset of its CFR-varying literals
// (by size, then lexicographically) whose removal gives a monotonous
// cover. The cover found is then shrunk greedily in literal order.
func refFindMC(g *sg.Graph, regs *sg.Regions, i int) (cube.Cube, core.ViolationKind) {
	c := refCoverCube(g, regs.ER[i])
	kind := refCheckMC(g, regs, i, c)
	if kind == core.NonMonotonic {
		cfr := append([]int(nil), regs.ER[i].States...)
		if j := regs.QRAfter[i]; j >= 0 {
			cfr = append(cfr, regs.QR[j].States...)
		}
		var lits []int
		for _, l := range c.Literals() {
			if slices.ContainsFunc(cfr, func(s int) bool { return g.Value(s, l) }) &&
				slices.ContainsFunc(cfr, func(s int) bool { return !g.Value(s, l) }) {
				lits = append(lits, l)
			}
		}
		for k := 1; k <= len(lits) && kind != core.OK; k++ {
			refSubsets(lits, k, nil, func(drop []int) bool {
				cand := c.Clone()
				for _, l := range drop {
					cand.Set(l, cube.Full)
				}
				if refCheckMC(g, regs, i, cand) == core.OK {
					c, kind = cand, core.OK
				}
				return kind == core.OK
			})
		}
	}
	if kind != core.OK {
		return cube.Cube{}, refCheckMC(g, regs, i, refCoverCube(g, regs.ER[i]))
	}
	for dropped := true; dropped; {
		dropped = false
		for _, l := range c.Literals() {
			cand := c.Clone()
			cand.Set(l, cube.Full)
			if refCheckMC(g, regs, i, cand) == core.OK {
				c, dropped = cand, true
			}
		}
	}
	return c, core.OK
}

// refSubsets calls fn with every size-k subset of lits, lexicographically
// by position, until fn returns true.
func refSubsets(lits []int, k int, prefix []int, fn func([]int) bool) bool {
	if k == 0 {
		return fn(prefix)
	}
	for i := 0; i+k <= len(lits); i++ {
		if refSubsets(lits[i+1:], k-1, append(prefix, lits[i]), fn) {
			return true
		}
	}
	return false
}

func TestDifferentialFindMCVsReference(t *testing.T) {
	graphs := diffGraphs(t)
	// Larger random specifications and selector rings make more regions
	// fail monotonicity at the canonical cube.
	for seed := int64(0); seed < 10; seed++ {
		spec := benchdata.GenRandomSpec(seed, 6)
		g, err := stg.BuildSG(spec.Net)
		if err != nil {
			t.Fatal(err)
		}
		graphs[spec.Net.Name] = g
	}
	for k := 3; k <= 5; k++ {
		g, err := stg.BuildSG(benchdata.GenSelectorRing(k))
		if err != nil {
			t.Fatal(err)
		}
		graphs[g.Name] = g
	}
	searched, repaired := 0, 0
	for name, g := range graphs {
		a := core.NewAnalyzerN(g, 1)
		for sig := range g.Signals {
			if g.Input[sig] {
				continue
			}
			regs := a.Regs[sig]
			for i, er := range regs.ER {
				got, v := a.FindMC(er)
				want, kind := refFindMC(g, regs, i)
				if kindOf(v) != kind || v == nil && !got.Equal(want) {
					t.Fatalf("%s: %s: FindMC %s (%v), reference %s (%v)",
						name, g.ERLabel(er), got, kindOf(v), want, kind)
				}
				if refCheckMC(g, regs, i, refCoverCube(g, er)) == core.NonMonotonic {
					searched++
					if v == nil {
						repaired++
					}
				}
			}
		}
	}
	if repaired == 0 || repaired == searched {
		t.Fatalf("%d regions searched past the canonical cube, %d found a cover; want some of each", searched, repaired)
	}
	t.Logf("%d regions searched past the canonical cube, %d found a cover", searched, repaired)
}
