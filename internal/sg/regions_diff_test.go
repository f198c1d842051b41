package sg_test

import (
	"sort"
	"testing"

	"repro/internal/sg"
)

// This file retains the original map-based region decomposition as a
// reference implementation and checks, over the paper figures, the
// Table-1 benchmarks and random series-parallel specifications, that
// the dense StateSet/Index-based decomposition produces exactly the
// same regions.

// refComponents splits the state list into maximal weakly connected
// components using only edges whose both endpoints lie in the set, with
// maps for the membership and visited sets — the reference for the
// StateSet-based decomposition RegionsOf carves from its own scratch.
func refComponents(g *sg.Graph, states []int) [][]int {
	in := make(map[int]bool, len(states))
	for _, s := range states {
		in[s] = true
	}
	seen := make(map[int]bool, len(states))
	var comps [][]int
	for _, s := range states {
		if seen[s] {
			continue
		}
		comp := []int{s}
		seen[s] = true
		for q := []int{s}; len(q) > 0; {
			u := q[len(q)-1]
			q = q[:len(q)-1]
			for _, e := range g.States[u].Succ {
				if in[e.To] && !seen[e.To] {
					seen[e.To] = true
					comp = append(comp, e.To)
					q = append(q, e.To)
				}
			}
			for _, e := range g.States[u].Pred {
				if in[e.To] && !seen[e.To] {
					seen[e.To] = true
					comp = append(comp, e.To)
					q = append(q, e.To)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// refRegions is the map-based reference decomposition of one signal:
// the components of the four Value×Excited classes, plus the minimal
// states of every component.
type refRegions struct {
	erPlus, erMinus, qrPlus, qrMinus [][]int
}

func refDecompose(g *sg.Graph, sig int) refRegions {
	var erPlus, erMinus, qr0, qr1 []int
	for s := range g.States {
		v := g.Value(s, sig)
		if g.Excited(s, sig) {
			if v {
				erMinus = append(erMinus, s)
			} else {
				erPlus = append(erPlus, s)
			}
		} else {
			if v {
				qr1 = append(qr1, s)
			} else {
				qr0 = append(qr0, s)
			}
		}
	}
	return refRegions{
		erPlus:  refComponents(g, erPlus),
		erMinus: refComponents(g, erMinus),
		qrPlus:  refComponents(g, qr1),
		qrMinus: refComponents(g, qr0),
	}
}

func refMin(g *sg.Graph, comp []int) []int {
	in := make(map[int]bool, len(comp))
	for _, s := range comp {
		in[s] = true
	}
	var min []int
	for _, s := range comp {
		minimal := true
		for _, e := range g.States[s].Pred {
			if in[e.To] {
				minimal = false
				break
			}
		}
		if minimal {
			min = append(min, s)
		}
	}
	return min
}

func equalIntSlices(a, b []int) bool {
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

func splitByDir(rs []*sg.Region, d sg.Dir) []*sg.Region {
	var out []*sg.Region
	for _, r := range rs {
		if r.Dir == d {
			out = append(out, r)
		}
	}
	return out
}

func compareRegions(t *testing.T, g *sg.Graph, name, kind string, got []*sg.Region, want [][]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %s: %d regions, reference has %d", name, kind, len(got), len(want))
	}
	for i, r := range got {
		if !equalIntSlices(r.States, want[i]) {
			t.Fatalf("%s: %s #%d: states %v, reference %v", name, kind, i, r.States, want[i])
		}
		if wantMin := refMin(g, want[i]); !equalIntSlices(r.Min, wantMin) {
			t.Fatalf("%s: %s #%d: minimal states %v, reference %v", name, kind, i, r.Min, wantMin)
		}
		for _, s := range want[i] {
			if !r.Contains(s) || !r.Set().Has(s) {
				t.Fatalf("%s: %s #%d: membership of s%d lost in the dense set", name, kind, i, s)
			}
		}
	}
}

// Both decompositions, RegionsOf's per-signal DFS and the region
// table's word-parallel labelling, must match the map reference.
func TestDifferentialRegionsVsMapReference(t *testing.T) {
	for name, g := range propertyGraphs(t) {
		tab := sg.NewRegionTable(g)
		for sig := range g.Signals {
			ref := refDecompose(g, sig)
			for _, path := range []struct {
				name string
				regs *sg.Regions
			}{{"table", tab.Regs[sig]}, {"RegionsOf", g.RegionsOf(sig)}} {
				where := name + " (" + path.name + ")"
				compareRegions(t, g, where, "ER+", splitByDir(path.regs.ER, sg.Plus), ref.erPlus)
				compareRegions(t, g, where, "ER-", splitByDir(path.regs.ER, sg.Minus), ref.erMinus)
				compareRegions(t, g, where, "QR+", splitByDir(path.regs.QR, sg.Plus), ref.qrPlus)
				compareRegions(t, g, where, "QR-", splitByDir(path.regs.QR, sg.Minus), ref.qrMinus)
			}
			regs := g.RegionsOf(sig)

			// CFR(i) must be exactly ER(i) ∪ its following QR, computed
			// here with maps.
			for i, er := range regs.ER {
				want := map[int]bool{}
				for _, s := range er.States {
					want[s] = true
				}
				if j := regs.QRAfter[i]; j >= 0 {
					for _, s := range regs.QR[j].States {
						want[s] = true
					}
				}
				cfr := regs.CFR(i)
				if cfr.Count() != len(want) {
					t.Fatalf("%s/%s: CFR(%d) has %d states, reference %d",
						name, g.Signals[sig], i, cfr.Count(), len(want))
				}
				cfr.ForEach(func(s int) {
					if !want[s] {
						t.Fatalf("%s/%s: CFR(%d) contains stray state s%d",
							name, g.Signals[sig], i, s)
					}
				})
			}
		}
	}
}

func TestDifferentialIndexSuccessorsAndExcitation(t *testing.T) {
	// The dense Index must agree with the Graph's own map-backed
	// Successor/Excited on every (state, signal) pair.
	for name, g := range propertyGraphs(t) {
		ix := sg.NewIndex(g)
		for s := 0; s < g.NumStates(); s++ {
			for sig := range g.Signals {
				if ge, ie := g.Excited(s, sig), ix.Excited(s, sig); ge != ie {
					t.Fatalf("%s: Excited(s%d, %s): graph %v, index %v",
						name, s, g.Signals[sig], ge, ie)
				}
				gt, gok := g.Successor(s, sig)
				it, iok := ix.Successor(s, sig)
				if gok != iok || (gok && gt != it) {
					t.Fatalf("%s: Successor(s%d, %s): graph (%d,%v), index (%d,%v)",
						name, s, g.Signals[sig], gt, gok, it, iok)
				}
			}
		}
	}
}
