package sg_test

import (
	"runtime"
	"testing"

	"repro/internal/benchdata"
	"repro/internal/sg"
	"repro/internal/stg"
)

// RegionsOf sizes its region bitsets to the regions it finds: one
// decomposition of an 8,192-state graph costs a few state-indexed int
// arrays plus ⌈n/64⌉ words per region, not ⌈n/64⌉ words per state.
func TestRegionsOfAllocationSizedToRegions(t *testing.T) {
	g, err := stg.BuildSG(benchdata.GenParallelizer(12))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumStates() != 8192 {
		t.Fatalf("fork12 has %d states, want 8192", g.NumStates())
	}
	ix := sg.NewIndex(g)
	const limit = 1 << 20
	for sig := range g.Signals {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		regs := ix.RegionsOf(sig)
		runtime.ReadMemStats(&after)
		if b := after.TotalAlloc - before.TotalAlloc; b >= limit {
			t.Errorf("RegionsOf(%s) on fork12 allocated %d bytes (%d regions), want < %d",
				g.Signals[sig], b, len(regs.ER)+len(regs.QR), limit)
		}
	}
}

// The property report groups states by code in one table, folds each
// state's successors into masks before any detonant pair is tested,
// counts conflicts without listing them and walks each excitation
// region's triggers without listing them, so on an 8,192-state graph it
// allocates a small constant, not per state or per region.
func TestCheckAllocationCount(t *testing.T) {
	g, err := stg.BuildSG(benchdata.GenParallelizer(12))
	if err != nil {
		t.Fatal(err)
	}
	tab := sg.NewRegionTable(g)
	if n := testing.AllocsPerRun(3, func() { tab.Check() }); n > 4 {
		t.Fatalf("Check on fork12 makes %.0f allocations, want ≤ 4", n)
	}
}

// Repair scoring decomposes every scanned signal of every candidate
// graph, so the allocation count per call must stay a small constant.
func TestRegionsOfAllocationCount(t *testing.T) {
	for _, e := range benchdata.Table1 {
		g, err := stg.BuildSG(e.STG())
		if err != nil {
			t.Fatal(err)
		}
		ix := sg.NewIndex(g)
		for sig := range g.Signals {
			if n := testing.AllocsPerRun(20, func() { ix.RegionsOf(sig) }); n > 7 {
				t.Errorf("%s: RegionsOf(%s) makes %.0f allocations, want ≤ 7", e.Name, g.Signals[sig], n)
			}
		}
	}
}
