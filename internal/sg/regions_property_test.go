package sg_test

import (
	"testing"

	"repro/internal/benchdata"
	"repro/internal/sg"
	"repro/internal/stg"
)

// propertyGraphs yields a diverse set of graphs: paper figures, Table-1
// benchmarks, random series-parallel specifications, and generated
// fork/join, wide-fork and selector-ring specifications whose region
// partitions run to hundreds of states.
func propertyGraphs(t *testing.T) map[string]*sg.Graph {
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
	for seed := int64(0); seed < 10; seed++ {
		spec := benchdata.GenRandomSpec(seed, 3)
		g, err := stg.BuildSG(spec.Net)
		if err != nil {
			t.Fatal(err)
		}
		out[spec.Net.Name] = g
	}
	for _, net := range []*stg.STG{
		benchdata.GenParallelizer(6),
		benchdata.GenParallelizer(8),
		benchdata.GenWideFork(1, 4, 2).Net,
		benchdata.GenWideFork(2, 3, 4).Net,
		benchdata.GenSelectorRing(4),
	} {
		g, err := stg.BuildSG(net)
		if err != nil {
			t.Fatal(err)
		}
		out[net.Name] = g
	}
	return out
}

func TestPropertyRegionsPartitionStates(t *testing.T) {
	// For every signal, the ER and QR regions partition the state set.
	for name, g := range propertyGraphs(t) {
		for sig := range g.Signals {
			regs := g.RegionsOf(sig)
			seen := map[int]int{}
			for _, r := range append(append([]*sg.Region{}, regs.ER...), regs.QR...) {
				for _, s := range r.States {
					seen[s]++
				}
			}
			for s := 0; s < g.NumStates(); s++ {
				if seen[s] != 1 {
					t.Fatalf("%s/%s: state %d appears in %d regions",
						name, g.Signals[sig], s, seen[s])
				}
			}
		}
	}
}

func TestPropertyRegionValueAndExcitation(t *testing.T) {
	// Within an ER the signal is excited at the region's source value;
	// within a QR it is stable.
	for name, g := range propertyGraphs(t) {
		for sig := range g.Signals {
			regs := g.RegionsOf(sig)
			for _, er := range regs.ER {
				wantVal := er.Dir == sg.Minus // −a fires from value 1
				for _, s := range er.States {
					if !g.Excited(s, sig) || g.Value(s, sig) != wantVal {
						t.Fatalf("%s: bad ER state s%d for %s", name, s, g.Signals[sig])
					}
				}
			}
			for _, qr := range regs.QR {
				wantVal := qr.Dir == sg.Plus // QR(+a): stable at 1
				for _, s := range qr.States {
					if g.Excited(s, sig) || g.Value(s, sig) != wantVal {
						t.Fatalf("%s: bad QR state s%d for %s", name, s, g.Signals[sig])
					}
				}
			}
		}
	}
}

func TestPropertyQRAfterConsistent(t *testing.T) {
	// Firing the region's transition from any ER state lands in the
	// associated QR (when the association exists).
	for name, g := range propertyGraphs(t) {
		for sig := range g.Signals {
			regs := g.RegionsOf(sig)
			for i, er := range regs.ER {
				j := regs.QRAfter[i]
				if j < 0 {
					continue
				}
				for _, s := range er.States {
					if to, ok := g.Successor(s, sig); ok && !regs.QR[j].Contains(to) {
						t.Fatalf("%s: %s exit from s%d misses its QR",
							name, g.ERLabel(er), s)
					}
				}
			}
		}
	}
}

func TestPropertyMinimalStatesHaveOutsidePreds(t *testing.T) {
	for name, g := range propertyGraphs(t) {
		for sig := range g.Signals {
			for _, er := range g.RegionsOf(sig).ER {
				if len(er.Min) == 0 {
					t.Fatalf("%s: %s has no minimal state", name, g.ERLabel(er))
				}
				for _, m := range er.Min {
					for _, e := range g.States[m].Pred {
						if er.Contains(e.To) {
							t.Fatalf("%s: minimal state s%d has an in-region predecessor", name, m)
						}
					}
				}
			}
		}
	}
}

func TestPropertyTriggersEnterRegions(t *testing.T) {
	for name, g := range propertyGraphs(t) {
		for sig := range g.Signals {
			for _, er := range g.RegionsOf(sig).ER {
				for _, tr := range g.Triggers(er) {
					if er.Contains(tr.From) || !er.Contains(tr.To) {
						t.Fatalf("%s: trigger %v of %s does not enter the region",
							name, tr, g.ERLabel(er))
					}
					if tr.Signal == er.Signal {
						t.Fatalf("%s: a region's own signal cannot trigger it", name)
					}
				}
			}
		}
	}
}

func TestPropertyMirrorInvolution(t *testing.T) {
	for name, g := range propertyGraphs(t) {
		mm := g.Mirror().Mirror()
		for i := range g.Input {
			if mm.Input[i] != g.Input[i] {
				t.Fatalf("%s: mirror is not an involution", name)
			}
		}
	}
}
