package synth_test

import (
	"runtime"
	"testing"

	"repro/internal/benchdata"
	"repro/internal/encode"
	"repro/internal/sg"
	"repro/internal/stg"
	"repro/internal/synth"
)

// One synthesis of the 8,192-state fork/join decomposes each signal
// once, into sets sized to its regions. Decomposing it three times with
// one n-bit set per possible region cost hundreds of megabytes.
func TestFromGraphAllocationOnWideGraph(t *testing.T) {
	g, err := stg.BuildSG(benchdata.GenParallelizer(12))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := synth.FromGraph(g, synth.Options{Parallel: 1})
	runtime.ReadMemStats(&after)
	if err != nil || !rep.OK() {
		t.Fatalf("fork12 did not synthesize: %v", err)
	}
	const limit = 32 << 20
	if b := after.TotalAlloc - before.TotalAlloc; b >= limit {
		t.Errorf("FromGraph on fork12 allocated %.1f MB, want < %d MB", float64(b)/(1<<20), limit>>20)
	}
}

// On a spec that needs no insertion the MC report, and with it the
// covers, is computed from the very regions Analyze decomposed: repair
// reads the analysis's table instead of decomposing the graph again.
func TestRepairReusesAnalysisRegions(t *testing.T) {
	for _, e := range benchdata.Table1 {
		if e.PaperAdded != 0 {
			continue
		}
		g, err := stg.BuildSG(e.STG())
		if err != nil {
			t.Fatal(err)
		}
		an, err := synth.Analyze(g)
		if err != nil {
			t.Fatal(err)
		}
		fixed, err := synth.Repair(an, encode.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(fixed.Added) != 0 {
			t.Fatalf("%s: inserted %v, want none", e.Name, fixed.Added)
		}
		a := fixed.Report.A
		if a.Idx != an.Table.Idx {
			t.Errorf("%s: the MC report's analyzer built its own index", e.Name)
		}
		for sig, regs := range an.Table.Regs {
			if a.Regs[sig] != regs {
				t.Errorf("%s: signal %s decomposed again for the MC report", e.Name, g.Signals[sig])
			}
		}
		if _, _, err := synth.CoverNetlist(fixed.G, fixed.Report, synth.Options{Share: true}); err != nil {
			t.Fatal(err)
		}
		for sig, regs := range an.Table.Regs {
			if a.Regs[sig] != regs {
				t.Errorf("%s: covering replaced signal %s's regions", e.Name, g.Signals[sig])
			}
		}
	}
}

// Analyze checks consistency once, inside the property report, and an
// inconsistent graph still gets exactly CheckConsistency's error (serve
// caches the text) and no analysis: an edge that flips the wrong bit,
// and a state the initial state cannot reach.
func TestAnalyzeRejectsInconsistentGraph(t *testing.T) {
	// a+ → b+ → a- → b- around four states, then one fault each.
	ring := func() *sg.Graph {
		g := &sg.Graph{Name: "ring", Signals: []string{"a", "b"}, Input: []bool{false, false}}
		for _, code := range []uint64{0b00, 0b01, 0b11, 0b10} {
			g.AddState(code)
		}
		for i, e := range []sg.Edge{{Signal: 0, Dir: sg.Plus}, {Signal: 1, Dir: sg.Plus}, {Signal: 0, Dir: sg.Minus}, {Signal: 1, Dir: sg.Minus}} {
			if err := g.AddEdge(i, (i+1)%4, e.Signal, e.Dir); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	wrongBit := ring()
	// s0 → s2 labelled a+ flips both bits.
	wrongBit.States[0].Succ = append(wrongBit.States[0].Succ, sg.Edge{Signal: 0, Dir: sg.Plus, To: 2})
	wrongBit.States[2].Pred = append(wrongBit.States[2].Pred, sg.Edge{Signal: 0, Dir: sg.Plus, To: 0})
	unreachable := ring()
	unreachable.AddState(0b01)
	for _, c := range []struct {
		name string
		g    *sg.Graph
	}{{"wrong bit", wrongBit}, {"unreachable", unreachable}} {
		name, g := c.name, c.g
		want := g.CheckConsistency()
		if want == nil {
			t.Fatalf("%s: CheckConsistency accepts the graph", name)
		}
		if g.Check().Consistent {
			t.Errorf("%s: the property report calls the graph consistent", name)
		}
		an, err := synth.Analyze(g)
		if an != nil || err == nil || err.Error() != want.Error() {
			t.Errorf("%s: Analyze returned (%v, %v), want (nil, %q)", name, an, err, want)
		}
	}
	if _, err := synth.Analyze(ring()); err != nil {
		t.Errorf("the consistent ring: %v", err)
	}
}
