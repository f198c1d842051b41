package core_test

import (
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
