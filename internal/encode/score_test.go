package encode

import (
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/sg"
	"repro/internal/stg"
)

// firstRound runs every conflict and strategy pair of a Table-1 spec's
// first repair round, as Repair's sweep does, and returns the round's
// search and the labellings it scored (its seen-set, one member per
// mirror orbit) in key order. The spec comes from the on-disk corpus,
// which the root package's tests keep equal to the embedded Table-1
// source (this package cannot import benchdata, which imports it
// through synth).
func firstRound(t *testing.T, spec string) (*roundSearch, [][]Label) {
	t.Helper()
	src, err := os.ReadFile("../../testdata/" + spec + ".g")
	if err != nil {
		t.Fatal(err)
	}
	net, err := stg.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	g, err := stg.BuildSG(net)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Workers: 1}
	opts.fill()
	rep := core.NewAnalyzer(g).CheckGraph()
	confl := mcConflicts(g, rep)
	name := freshSignalName(g, 0)
	var hot []string
	for _, v := range rep.Violations() {
		hot = append(hot, g.Signals[v.Signal])
	}
	hot = append(hot, name)
	rs := newRoundSearch(g, name, opts, hot)
	for _, c := range confl {
		for _, strat := range opts.Strategies {
			rs.tryInsert(c, confl, strat, len(rep.Violations()))
		}
	}
	keys := make([]string, 0, len(rs.seen))
	for k := range rs.seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]Label, len(keys))
	for i, k := range keys {
		out[i] = make([]Label, len(k))
		for j := range k {
			out[i][j] = Label(k[j])
		}
	}
	return rs, out
}

// roundCandidates returns the graphs of the labellings duplicator's
// first repair round scored that reach the count (valid expansions that
// stay output semi-modular), and the scan-first signals Repair would
// pass.
func roundCandidates(t *testing.T) ([]*sg.Graph, []string) {
	t.Helper()
	rs, labellings := firstRound(t, "duplicator")
	var out []*sg.Graph
	for _, labels := range labellings {
		g2, err := Expand(rs.g, labels, rs.name)
		if err == nil && sg.NewIndex(g2).OutputSemiModular() {
			out = append(out, g2)
		}
	}
	if len(out) < 100 {
		t.Fatalf("only %d of %d scored labellings reach the count", len(out), len(labellings))
	}
	return out, rs.hot
}

// One slot scores candidate after candidate in place: its expansion,
// index, analyzer and region arena are rebuilt for each. The scored
// first-round candidates of duplicator and nak-pa, shuffled together so
// that graphs of different sizes follow each other through one slot,
// must get the verdict a fresh expansion, index and lazy analyzer give:
// the same graph, count and pruned flag at every budget.
func TestScoreSlotReuseMatchesFresh(t *testing.T) {
	type cand struct {
		rs     *roundSearch
		labels []Label
	}
	var all []cand
	for _, spec := range []string{"duplicator", "nak-pa"} {
		rs, labellings := firstRound(t, spec)
		for _, labels := range labellings {
			all = append(all, cand{rs, labels})
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	var slot slotScratch
	valid, shrinks, prev := 0, 0, 0
	for _, c := range all {
		want, err := Expand(c.rs.g, c.labels, c.rs.name)
		if err == nil && !sg.NewIndex(want).OutputSemiModular() {
			want = nil
		}
		if got := c.rs.score(c.labels, 0, &slot).g; (got == nil) != (want == nil) || want != nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the slot's expansion differs from a fresh one", c.rs.g.Name)
		}
		if want == nil {
			continue
		}
		valid++
		if want.NumStates() < prev {
			shrinks++
		}
		prev = want.NumStates()
		count := core.NewAnalyzerLazy(sg.NewIndex(want)).CountViolationsBudget(0, c.rs.hot...)
		for _, budget := range []int{0, 1, 2, count + 1} {
			n := core.NewAnalyzerLazy(sg.NewIndex(want)).CountViolationsBudget(budget, c.rs.hot...)
			sc := c.rs.score(c.labels, budget, &slot)
			if sc.count != n || sc.pruned != (n >= budget) {
				t.Fatalf("%s at budget %d: slot scored %d (pruned %v), fresh %d on\n%s",
					c.rs.g.Name, budget, sc.count, sc.pruned, n, want.Dump())
			}
		}
	}
	if valid < 200 || shrinks == 0 {
		t.Fatalf("%d of %d candidates reach the count, %d follow a larger one; want more of both",
			valid, len(all), shrinks)
	}
	t.Logf("%d candidates, %d reach the count, %d follow a larger one", len(all), valid, shrinks)
}

// Scoring reuses its slot's memory, so a scored candidate allocates
// next to nothing: only the expansion's consistency check (one buffer
// for its visited set and stack) is left. Averaged over every labelling
// duplicator's first round scores.
func TestScoreAllocations(t *testing.T) {
	rs, labellings := firstRound(t, "duplicator")
	for _, budget := range []int{0, 2} {
		n := testing.AllocsPerRun(3, func() {
			for _, labels := range labellings {
				rs.score(labels, budget, &rs.scratch[0])
			}
		}) / float64(len(labellings))
		if n > 5 {
			t.Errorf("budget %d: %.1f allocations per scored labelling over %d, want ≤ 5", budget, n, len(labellings))
		}
		t.Logf("budget %d: %.2f allocations per scored labelling over %d", budget, n, len(labellings))
	}
}

// The budgeted count agrees with the full MC check on every candidate
// the round scored: exact without a budget, exact below a budget b and
// at least b otherwise.
func TestScoredCandidatesCountMatchesCheckGraph(t *testing.T) {
	cands, hot := roundCandidates(t)
	for _, g := range cands {
		want := len(core.NewAnalyzer(g).CheckGraph().Violations())
		ix := sg.NewIndex(g)
		if got := core.NewAnalyzerLazy(ix).CountViolationsBudget(0, hot...); got != want {
			t.Fatalf("count %d, CheckGraph %d violations on\n%s", got, want, g.Dump())
		}
		for b := 1; b <= want+1; b++ {
			got := core.NewAnalyzerLazy(ix).CountViolationsBudget(b, hot...)
			if want < b && got != want || want >= b && got < b {
				t.Fatalf("count at budget %d is %d, CheckGraph %d violations on\n%s", b, got, want, g.Dump())
			}
		}
	}
}

// FindMC agrees with the literal-dropping search of its definition on
// every excitation region of every candidate the round scored: when
// the canonical cover cube fails only monotonicity, the first subset of
// its CFR-varying literals (by size, then lexicographically) whose
// removal passes CheckMC, shrunk greedily in literal order.
func TestScoredCandidatesFindMCMatchesSubsetSearch(t *testing.T) {
	cands, _ := roundCandidates(t)
	searched, repaired := 0, 0
	for _, g := range cands {
		a := core.NewAnalyzer(g)
		for sig := range g.Signals {
			if g.Input[sig] {
				continue
			}
			for i, er := range a.Regs[sig].ER {
				want, ok := subsetSearchMC(a, i, er)
				got, v := a.FindMC(er)
				if ok != (v == nil) || ok && !got.Equal(want) {
					t.Fatalf("%s: FindMC %s (%v), subset search %s (%v) on\n%s",
						g.ERLabel(er), got, v == nil, want, ok, g.Dump())
				}
				if cv := a.CheckMC(er, a.CoverCube(er)); cv != nil && cv.Kind == core.NonMonotonic {
					searched++
					if ok {
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

func subsetSearchMC(a *core.Analyzer, i int, er *sg.Region) (cube.Cube, bool) {
	c := a.CoverCube(er)
	v := a.CheckMC(er, c)
	if v != nil && v.Kind == core.NonMonotonic {
		regs := a.Regs[er.Signal]
		cfr := regs.CFR(i)
		var lits []int
		for _, l := range c.Literals() {
			saw := [2]bool{}
			cfr.ForEach(func(s int) { saw[a.G.States[s].Code>>uint(l)&1] = true })
			if saw[0] && saw[1] {
				lits = append(lits, l)
			}
		}
		for k := 1; k <= len(lits) && v != nil; k++ {
			subsets(lits, k, nil, func(drop []int) bool {
				cand := c.Clone()
				for _, l := range drop {
					cand.Set(l, cube.Full)
				}
				if a.CheckMC(er, cand) == nil {
					c, v = cand, nil
				}
				return v == nil
			})
		}
	}
	if v != nil {
		return cube.Cube{}, false
	}
	for dropped := true; dropped; {
		dropped = false
		for _, l := range c.Literals() {
			cand := c.Clone()
			cand.Set(l, cube.Full)
			if a.CheckMC(er, cand) == nil {
				c, dropped = cand, true
			}
		}
	}
	return c, true
}

// subsets calls fn with every size-k subset of lits, lexicographically
// by position, until fn returns true.
func subsets(lits []int, k int, prefix []int, fn func([]int) bool) bool {
	if k == 0 {
		return fn(prefix)
	}
	for i := 0; i+k <= len(lits); i++ {
		if subsets(lits[i+1:], k-1, append(prefix, lits[i]), fn) {
			return true
		}
	}
	return false
}
