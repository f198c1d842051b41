package core_test

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/benchdata"
	"repro/internal/core"
	"repro/internal/sg"
	"repro/internal/stg"
)

// Repair scores every candidate graph with a fresh lazy analyzer's
// budgeted count, so the count's allocations are paid per candidate.
// Each non-input signal costs the six allocations of its region
// decomposition and little else: the cover test reads the state code,
// so no per-state cube is built, and a grouped search allocates CFRs
// only once its supercube has passed the correct-cover test. The rest
// is the scan order, two scratch buffers and the analyzer itself.
func TestCountViolationsAllocationCount(t *testing.T) {
	for _, e := range benchdata.Table1 {
		g, err := stg.BuildSG(e.STG())
		if err != nil {
			t.Fatal(err)
		}
		ix := sg.NewIndex(g)
		nonInput := 0
		for sig := range g.Signals {
			if !g.Input[sig] {
				nonInput++
			}
		}
		limit := float64(4 + 9*nonInput)
		n := testing.AllocsPerRun(20, func() { core.NewAnalyzerLazy(ix).CountViolationsBudget(0) })
		if n > limit {
			t.Errorf("%s: a full count makes %.0f allocations, want ≤ %.0f (%d non-input signals)",
				e.Name, n, limit, nonInput)
		}
	}
}

// Analysis runs on its caller, so its allocations cannot depend on the
// core count. testing.AllocsPerRun pins GOMAXPROCS to 1, so the test
// counts heap allocations itself, at GOMAXPROCS 1 and 2.
func TestCheckGraphAllocationsIgnoreGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, name := range []string{"duplicator", "nak-pa"} {
		e, ok := benchdata.Table1ByName(name)
		if !ok {
			t.Fatalf("no Table-1 entry %s", name)
		}
		g, err := stg.BuildSG(e.STG())
		if err != nil {
			t.Fatal(err)
		}
		var counts [2]uint64
		for i := range counts {
			runtime.GOMAXPROCS(i + 1)
			counts[i] = mallocs(func() { core.NewAnalyzer(g).CheckGraph() })
		}
		if counts[0] != counts[1] {
			t.Errorf("%s: NewAnalyzer(g).CheckGraph() makes %d allocations at GOMAXPROCS=1 and %d at 2",
				name, counts[0], counts[1])
		}
	}
}

// mallocs returns the fewest heap allocations f makes in five runs,
// after one run to warm up.
func mallocs(f func()) uint64 {
	f()
	fewest := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range 5 {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	return fewest
}
