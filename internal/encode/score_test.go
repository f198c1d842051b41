package encode

import (
	"os"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/sg"
	"repro/internal/stg"
)

// roundCandidates runs every conflict and strategy pair of duplicator's
// first repair round, as Repair's sweep does, and returns the graphs of
// the labellings the round scored (its seen-set, one member per mirror
// orbit) that reach the count: valid expansions that stay output
// semi-modular. It also returns the scan-first signals Repair would
// pass. The spec comes from the on-disk corpus, which the root
// package's tests keep equal to the embedded Table-1 source (this
// package cannot import benchdata, which imports it through synth).
func roundCandidates(t *testing.T) ([]*sg.Graph, []string) {
	t.Helper()
	src, err := os.ReadFile("../../testdata/duplicator.g")
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
	rep := core.NewAnalyzerN(g, 1).CheckGraph()
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
	var out []*sg.Graph
	for _, k := range keys {
		labels := make([]Label, len(k))
		for i := range k {
			labels[i] = Label(k[i])
		}
		g2, err := Expand(g, labels, name)
		if err == nil && sg.NewIndex(g2).OutputSemiModular() {
			out = append(out, g2)
		}
	}
	if len(out) < 100 {
		t.Fatalf("only %d of %d scored labellings reach the count", len(out), len(keys))
	}
	return out, hot
}

// The budgeted count agrees with the full MC check on every candidate
// the round scored: exact without a budget, exact below a budget b and
// at least b otherwise.
func TestScoredCandidatesCountMatchesCheckGraph(t *testing.T) {
	cands, hot := roundCandidates(t)
	for _, g := range cands {
		want := len(core.NewAnalyzerN(g, 1).CheckGraph().Violations())
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
		a := core.NewAnalyzerN(g, 1)
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
