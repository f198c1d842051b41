package synth_test

import (
	"runtime"
	"testing"

	"repro/internal/benchdata"
	"repro/internal/encode"
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
