package core

import (
	"fmt"

	"repro/internal/cube"
	"repro/internal/sg"
)

// This file implements Section VI of the paper: the generalization of the
// Monotonous Cover requirement to sets of excitation regions, which
// permits one AND gate (product term) to serve several excitation
// regions — of the same signal or of different signals — and Theorem 5,
// which guarantees that the shared implementation stays semi-modular as
// long as every excitation region is covered by exactly one cube.

// CheckGeneralizedMC verifies Definition 19 for cube c against the set
// of excitation regions ers:
//
//  1. c covers every state of every region in ers,
//  2. c changes at most once along any trace inside each region's CFR,
//  3. c covers no reachable state outside the union of the CFRs.
//
// It returns nil when c is a generalized monotonous cover.
func (a *Analyzer) CheckGeneralizedMC(ers []*sg.Region, c cube.Cube) *Violation {
	if len(ers) == 0 {
		return nil
	}
	// Premise of Definition 19: c must be a correct cover of every
	// region in the set (Definition 16) — with several signals involved,
	// condition (3) over the CFR union alone would let the cube reach a
	// forbidden set of one signal through another signal's CFR.
	for _, er := range ers {
		if v := a.CheckCorrectCover(er, c); v != nil {
			return v
		}
	}
	m := maskOf(c)
	// Condition (1).
	for _, er := range ers {
		var missed []int
		for _, s := range er.States {
			if !m.covers(a.code(s)) {
				missed = append(missed, s)
			}
		}
		if len(missed) > 0 {
			return &Violation{Kind: NotCovering, Signal: er.Signal, ER: er, Cube: c, States: missed}
		}
	}
	// Condition (2), per region CFR.
	union := sg.NewStateSet(a.G.NumStates())
	for _, er := range ers {
		cfr := a.regs(er.Signal).CFR(a.erIndex(er))
		if u, v := a.rise(cfr, m); u >= 0 {
			return &Violation{Kind: NonMonotonic, Signal: er.Signal, ER: er, Cube: c, States: []int{u, v}}
		}
		union.UnionWith(cfr)
	}
	// Condition (3) over the union of CFRs.
	var outside []int
	for s := a.outside(union, m, 0); s >= 0; s = a.outside(union, m, s+1) {
		outside = append(outside, s)
	}
	if len(outside) > 0 {
		return &Violation{Kind: OutsideCFR, Signal: ers[0].Signal, ER: ers[0], Cube: c, States: outside}
	}
	return nil
}

// Functions holds the up- and down-excitation covers of one signal.
type Functions struct {
	Set, Reset cube.Cover
}

// shareGroup is a set of excitation regions served by one cube.
type shareGroup struct {
	regions []*RegionResult
	cube    cube.Cube
}

// ShareOptimize applies the Section-VI optimization to a satisfied MC
// report: product terms are merged greedily — a merge replaces two cubes
// by their supercube when the generalized MC conditions and Theorem 5's
// exactly-one-cube-per-region side condition hold. It returns the
// per-signal excitation functions and the number of AND terms saved.
func (a *Analyzer) ShareOptimize(rep *Report) (map[int]Functions, int, error) {
	if !rep.Satisfied() {
		return nil, 0, fmt.Errorf("core: cannot share-optimize a violated report")
	}
	var groups []*shareGroup
	for i := range rep.Results {
		res := &rep.Results[i]
		if res.Degenerate {
			continue // wire signals have no AND gates to share
		}
		groups = append(groups, &shareGroup{regions: []*RegionResult{res}, cube: res.Cube})
	}

	andCount := func(gs []*shareGroup) int {
		n := 0
		for _, g := range gs {
			if g.cube.LiteralCount() >= 2 {
				n++
			}
		}
		return n
	}
	before := andCount(groups)

	// validMerge checks a candidate merged group.
	validMerge := func(regions []*RegionResult, c cube.Cube) bool {
		ers := make([]*sg.Region, len(regions))
		inGroup := map[*sg.Region]bool{}
		for i, r := range regions {
			ers[i] = r.ER
			inGroup[r.ER] = true
		}
		if a.CheckGeneralizedMC(ers, c) != nil {
			return false
		}
		// Theorem 5 side condition: for every signal with a region in
		// the group, the cube must not touch that signal's other
		// excitation regions (they are covered by their own cubes, and
		// a second overlapping cube would fire inside them).
		m := maskOf(c)
		var seen uint64
		for _, r := range regions {
			if seen>>uint(r.Signal)&1 == 1 {
				continue
			}
			seen |= 1 << uint(r.Signal)
			for _, er := range a.regs(r.Signal).ER {
				if inGroup[er] {
					continue
				}
				for _, s := range er.States {
					if m.covers(a.code(s)) {
						return false
					}
				}
			}
		}
		return true
	}

	// Greedy pairwise merging until no merge reduces the AND count.
	for {
		merged := false
		for i := 0; i < len(groups) && !merged; i++ {
			for j := i + 1; j < len(groups) && !merged; j++ {
				gi, gj := groups[i], groups[j]
				// Only merging two real AND terms saves a gate.
				if gi.cube.LiteralCount() < 2 || gj.cube.LiteralCount() < 2 {
					continue
				}
				c := gi.cube.Supercube(gj.cube)
				if c.LiteralCount() < 2 {
					continue // degenerating to a bare literal changes structure
				}
				all := append(append([]*RegionResult(nil), gi.regions...), gj.regions...)
				if !validMerge(all, c) {
					continue
				}
				gi.regions = all
				gi.cube = c
				groups = append(groups[:j], groups[j+1:]...)
				merged = true
			}
		}
		if !merged {
			break
		}
	}

	// Assemble per-signal functions.
	fns := map[int]Functions{}
	n := a.G.NumSignals()
	get := func(sig int) Functions {
		if f, ok := fns[sig]; ok {
			return f
		}
		return Functions{Set: cube.NewCover(n), Reset: cube.NewCover(n)}
	}
	for _, g := range groups {
		done := map[string]bool{}
		for _, r := range g.regions {
			key := fmt.Sprintf("%d/%d", r.Signal, r.ER.Dir)
			if done[key] {
				continue // one cube appears once per function
			}
			done[key] = true
			f := get(r.Signal)
			if r.ER.Dir == sg.Plus {
				f.Set.Add(g.cube)
			} else {
				f.Reset.Add(g.cube)
			}
			fns[r.Signal] = f
		}
	}
	// Degenerate signals keep their wire covers.
	for i := range rep.Results {
		res := &rep.Results[i]
		if !res.Degenerate {
			continue
		}
		f := get(res.Signal)
		if res.ER.Dir == sg.Plus {
			f.Set.Add(res.Cube)
		} else {
			f.Reset.Add(res.Cube)
		}
		fns[res.Signal] = f
	}
	// Canonicalize in signal order rather than map order: SCC itself is
	// deterministic per cover, but walking the signals ascending keeps
	// the whole assembly reproducible by construction.
	for sig := 0; sig < n; sig++ {
		if f, ok := fns[sig]; ok {
			fns[sig] = Functions{Set: f.Set.SCC(), Reset: f.Reset.SCC()}
		}
	}
	return fns, before - andCount(groups), nil
}
