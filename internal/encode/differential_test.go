package encode_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/benchdata"
	"repro/internal/encode"
	"repro/internal/netlist"
	"repro/internal/sg"
	"repro/internal/stg"
)

// netlistOf builds the standard C-implementation from a repair result,
// so two repair runs can be compared down to the gate level.
func netlistOf(t *testing.T, res *encode.Result) string {
	t.Helper()
	fns := map[int]netlist.SR{}
	for sig := range res.G.Signals {
		if res.G.Input[sig] {
			continue
		}
		set, reset, err := res.Report.ExcitationFunctions(sig)
		if err != nil {
			t.Fatal(err)
		}
		fns[sig] = netlist.SR{Set: set, Reset: reset}
	}
	nl, err := netlist.Build(res.G, fns, netlist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return nl.String()
}

// TestRepairParallelSequentialIdentical pins the determinism contract
// of the candidate-search engine: chunked enumeration with budgets
// frozen at chunk boundaries and an in-order reduction make the
// parallel search select byte-identical results to the sequential one
// — same inserted signals, same strategies, same model tallies, and
// gate-identical netlists — at 4 and 8 workers, across every Table-1
// specification.
func TestRepairParallelSequentialIdentical(t *testing.T) {
	for _, e := range benchdata.Table1 {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			net, err := stg.Parse(e.Source)
			if err != nil {
				t.Fatal(err)
			}
			g, err := stg.BuildSG(net)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := encode.Repair(g, encode.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{4, 8} {
				par, err := encode.Repair(g, encode.Options{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(seq.Added, par.Added) {
					t.Errorf("workers=%d: added signals diverge: seq=%v par=%v", w, seq.Added, par.Added)
				}
				if !reflect.DeepEqual(seq.Strategy, par.Strategy) {
					t.Errorf("workers=%d: strategies diverge: seq=%v par=%v", w, seq.Strategy, par.Strategy)
				}
				if seq.Models != par.Models || seq.Candidates != par.Candidates ||
					seq.Deduped != par.Deduped || seq.Pruned != par.Pruned {
					t.Errorf("workers=%d: search tallies diverge: seq models=%d candidates=%d deduped=%d pruned=%d, par models=%d candidates=%d deduped=%d pruned=%d",
						w, seq.Models, seq.Candidates, seq.Deduped, seq.Pruned,
						par.Models, par.Candidates, par.Deduped, par.Pruned)
				}
				if len(seq.Added) == 0 {
					continue // nothing inserted; netlists trivially agree
				}
				if sn, pn := netlistOf(t, seq), netlistOf(t, par); sn != pn {
					t.Errorf("netlists diverge:\n--- workers=1 ---\n%s--- workers=%d ---\n%s", sn, w, pn)
				}
			}
		})
	}
}

// TestPortfolioDeterministic pins the single-solver contract: each
// repair round queries one canonical solver, and the worker count only
// widens the candidate-scoring fan-out, so the SAT search itself —
// conflicts, decisions, propagations, restarts and the clauses carried
// between rounds — must be the same at 1, 4 and 8 workers. The name
// dates from the racing portfolio that once stood in front of that
// solver. All nine Table-1 specifications are repaired at the three
// widths.
func TestPortfolioDeterministic(t *testing.T) {
	for _, e := range benchdata.Table1 {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			net, err := stg.Parse(e.Source)
			if err != nil {
				t.Fatal(err)
			}
			g, err := stg.BuildSG(net)
			if err != nil {
				t.Fatal(err)
			}
			var ref *encode.Result
			for _, w := range []int{1, 4, 8} {
				res, err := encode.Repair(g, encode.Options{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = res
					continue
				}
				if ref.SAT != res.SAT {
					t.Errorf("workers=%d: SAT search diverges: %+v vs %+v", w, ref.SAT, res.SAT)
				}
				if ref.Carried != res.Carried || ref.CarriedKept != res.CarriedKept {
					t.Errorf("workers=%d: carried learnts diverge: %d/%d kept vs %d/%d kept",
						w, ref.CarriedKept, ref.Carried, res.CarriedKept, res.Carried)
				}
				if !reflect.DeepEqual(ref.Added, res.Added) {
					t.Errorf("workers=%d: added signals diverge: %v vs %v", w, ref.Added, res.Added)
				}
			}
		})
	}
}

// TestCrossRoundLearntsSound pins the carrying contract: clauses
// carried from one repair round to the next are re-certified against
// the grown formula by reverse unit propagation, so disabling the carry
// must yield the identical model enumeration — same insertions, same
// tallies, same gates — on every Table-1 specification.
func TestCrossRoundLearntsSound(t *testing.T) {
	for _, e := range benchdata.Table1 {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			net, err := stg.Parse(e.Source)
			if err != nil {
				t.Fatal(err)
			}
			g, err := stg.BuildSG(net)
			if err != nil {
				t.Fatal(err)
			}
			carry, err := encode.Repair(g, encode.Options{})
			if err != nil {
				t.Fatal(err)
			}
			plain, err := encode.Repair(g, encode.Options{DisableLearntCarry: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(carry.Added, plain.Added) {
				t.Errorf("added signals diverge: carry=%v plain=%v", carry.Added, plain.Added)
			}
			if !reflect.DeepEqual(carry.Strategy, plain.Strategy) {
				t.Errorf("strategies diverge: carry=%v plain=%v", carry.Strategy, plain.Strategy)
			}
			if carry.Models != plain.Models || carry.Candidates != plain.Candidates ||
				carry.Deduped != plain.Deduped || carry.Pruned != plain.Pruned {
				t.Errorf("search tallies diverge: carry models=%d candidates=%d deduped=%d pruned=%d, plain models=%d candidates=%d deduped=%d pruned=%d",
					carry.Models, carry.Candidates, carry.Deduped, carry.Pruned,
					plain.Models, plain.Candidates, plain.Deduped, plain.Pruned)
			}
			if plain.Carried != 0 || plain.CarriedKept != 0 {
				t.Errorf("carry disabled but tallies nonzero: carried=%d kept=%d", plain.Carried, plain.CarriedKept)
			}
			if len(carry.Added) > 1 && carry.Carried == 0 {
				t.Errorf("multi-round repair (%d insertions) carried no clauses", len(carry.Added))
			}
			if carry.CarriedKept > carry.Carried {
				t.Errorf("kept %d of %d carried clauses", carry.CarriedKept, carry.Carried)
			}
			if len(carry.Added) == 0 {
				return
			}
			if cn, pn := netlistOf(t, carry), netlistOf(t, plain); cn != pn {
				t.Errorf("netlists diverge:\n--- carry ---\n%s--- no carry ---\n%s", cn, pn)
			}
		})
	}
}

// TestEdgeEncodingMatchesReference pins the edge encoding against the
// forbidden-pair encoding it replaced: both admit the same labellings,
// so a canonical solver must enumerate the identical model sequence
// from either, under Free and under every strategy's assumptions on
// the first conflict, on the nine Table-1 round-0 graphs, the paper's
// Fig. 1 and Fig. 4 graphs and the selector rings 2–6.
func TestEdgeEncodingMatchesReference(t *testing.T) {
	const maxModels = 128
	type spec struct {
		name string
		g    *sg.Graph
	}
	var specs []spec
	for _, e := range benchdata.Table1 {
		g, err := stg.BuildSG(e.STG())
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec{e.Name, g})
	}
	specs = append(specs, spec{"fig1", benchdata.Fig1SG()}, spec{"fig4", benchdata.Fig4SG()})
	for k := 2; k <= 6; k++ {
		g, err := stg.BuildSG(benchdata.GenSelectorRing(k))
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec{fmt.Sprintf("ring%d", k), g})
	}
	total := 0
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			got := encode.CanonicalModelSequences(sp.g, false, maxModels)
			want := encode.CanonicalModelSequences(sp.g, true, maxModels)
			if len(got) != len(want) {
				t.Fatalf("%d strategies enumerated, reference %d", len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("strategy %d: %d models differ from the reference's %d", i, len(got[i]), len(want[i]))
				}
				total += len(want[i])
			}
		})
	}
	if total == 0 {
		t.Fatal("no models enumerated")
	}
	t.Logf("%d models compared", total)
}
