package bench

import (
	"bytes"
	"strings"
	"testing"
)

// report builds a synthetic one-entry report for diff tests.
func report(ns, allocs int64) *Report {
	return &Report{
		GoVersion: "go1.23.0",
		GOOS:      "linux",
		GOARCH:    "amd64",
		CPUModel:  "TestCPU 3000",
		GOGC:      "100",
		Entries: []Entry{{
			Name: "alloc-outbound",
			Stages: map[string]Stage{
				"repair": {NsPerOp: ns, AllocsPerOp: allocs, BytesPerOp: allocs * 64},
				"reach":  {NsPerOp: 10_000, AllocsPerOp: 100, BytesPerOp: 6_400},
			},
		}},
	}
}

func findDelta(t *testing.T, res *DiffResult, stage, metric string) Delta {
	t.Helper()
	for _, d := range res.Deltas {
		if d.Stage == stage && d.Metric == metric {
			return d
		}
	}
	t.Fatalf("no delta for %s %s in %+v", stage, metric, res.Deltas)
	return Delta{}
}

// TestDiffCatchesPlantedRepairRegression is the sentinel's core
// acceptance: a 25% repair-stage slowdown must trip the gate.
func TestDiffCatchesPlantedRepairRegression(t *testing.T) {
	oldR := report(1_000_000, 5_000)
	newR := report(1_250_000, 5_000) // +25% repair time

	res, err := Diff(oldR, newR, DiffOptions{TimeBudget: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Regressions == 0 {
		t.Fatal("planted +25% repair regression not flagged")
	}
	d := findDelta(t, res, "repair", "time/op")
	if d.Verdict != VerdictRegression {
		t.Fatalf("repair time/op verdict = %q, want %q", d.Verdict, VerdictRegression)
	}
	if d.Rel < 0.24 || d.Rel > 0.26 {
		t.Fatalf("repair rel delta = %v, want ~0.25", d.Rel)
	}
	// The untouched stage stays quiet.
	if d := findDelta(t, res, "reach", "time/op"); d.Verdict != VerdictNoise {
		t.Fatalf("reach verdict = %q, want noise", d.Verdict)
	}
}

// TestDiffAgainstCommittedBaseline plants the same class of regression
// into the repo's real committed baseline and checks the gate fires for
// every benchmark's repair stage — the exact CI configuration.
func TestDiffAgainstCommittedBaseline(t *testing.T) {
	base, err := ReadReport("../../BENCH_table1.json")
	if err != nil {
		t.Skipf("no committed baseline: %v", err)
	}
	slowed, err := ReadReport("../../BENCH_table1.json")
	if err != nil {
		t.Fatal(err)
	}
	planted := 0
	for i := range slowed.Entries {
		st := slowed.Entries[i].Stages["repair"]
		st.NsPerOp = st.NsPerOp * 12 / 10 // +20%
		slowed.Entries[i].Stages["repair"] = st
		planted++
	}
	if planted == 0 {
		t.Fatal("baseline has no entries")
	}
	res, err := Diff(base, slowed, DiffOptions{TimeBudget: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if res.Regressions != planted {
		t.Fatalf("flagged %d regressions, want %d (one per entry's repair stage)", res.Regressions, planted)
	}
}

func TestDiffWithinNoise(t *testing.T) {
	oldR := report(1_000_000, 5_000)
	newR := report(1_030_000, 5_000) // +3%, under the 5% noise floor

	res, err := Diff(oldR, newR, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Regressions != 0 {
		t.Fatalf("noise flagged as regression: %+v", res.Deltas)
	}
	if d := findDelta(t, res, "repair", "time/op"); d.Verdict != VerdictNoise {
		t.Fatalf("verdict = %q, want %q", d.Verdict, VerdictNoise)
	}
}

func TestDiffSlowerButWithinBudget(t *testing.T) {
	oldR := report(1_000_000, 5_000)
	newR := report(1_080_000, 5_000) // +8%: beyond noise, inside the 10% budget

	res, err := Diff(oldR, newR, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Regressions != 0 {
		t.Fatal("+8% under a 10% budget must not gate")
	}
	if d := findDelta(t, res, "repair", "time/op"); d.Verdict != VerdictSlower {
		t.Fatalf("verdict = %q, want %q", d.Verdict, VerdictSlower)
	}
}

func TestDiffStageBudgetOverride(t *testing.T) {
	oldR := report(1_000_000, 5_000)
	newR := report(1_200_000, 5_000) // +20%

	res, err := Diff(oldR, newR, DiffOptions{
		TimeBudget:   0.10,
		StageBudgets: map[string]float64{"repair": 0.50},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Regressions != 0 {
		t.Fatal("+20% under a 50% repair budget must not gate")
	}
}

func TestDiffRefusesCrossMachine(t *testing.T) {
	oldR := report(1_000_000, 5_000)
	newR := report(1_000_000, 5_000)
	newR.CPUModel = "OtherCPU 9000"

	if _, err := Diff(oldR, newR, DiffOptions{}); err == nil {
		t.Fatal("cross-machine diff must refuse without AllowCrossMachine")
	} else if !strings.Contains(err.Error(), "cross-machine") {
		t.Fatalf("unexpected refusal message: %v", err)
	}

	res, err := Diff(oldR, newR, DiffOptions{AllowCrossMachine: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CrossMachine {
		t.Fatal("CrossMachine not recorded")
	}
}

// TestDiffRefusesDifferentGOMAXPROCS: the repair stage sizes its
// scoring pool from GOMAXPROCS, so a report taken at another
// setting differs in allocs/op as well as time/op. Diff refuses it even
// when cross-machine comparison is allowed.
func TestDiffRefusesDifferentGOMAXPROCS(t *testing.T) {
	oldR := report(1_000_000, 5_000)
	oldR.GOMAXPROCS = 1
	newR := report(1_000_000, 5_000)
	newR.GOMAXPROCS = 2

	for _, opts := range []DiffOptions{{}, {AllowCrossMachine: true}} {
		if _, err := Diff(oldR, newR, opts); err == nil {
			t.Fatalf("diff across GOMAXPROCS 1 and 2 must refuse (AllowCrossMachine=%v)", opts.AllowCrossMachine)
		} else if !strings.Contains(err.Error(), "GOMAXPROCS") {
			t.Fatalf("unexpected refusal message: %v", err)
		}
	}

	newR.GOMAXPROCS = 1
	if _, err := Diff(oldR, newR, DiffOptions{}); err != nil {
		t.Fatalf("equal GOMAXPROCS must compare: %v", err)
	}
}

// TestDiffAllocGateIsMachineIndependent: even in a permissive
// cross-machine diff, allocs/op growth past its tight budget gates.
func TestDiffAllocGate(t *testing.T) {
	oldR := report(1_000_000, 5_000)
	newR := report(1_000_000, 5_600) // +12% allocs

	res, err := Diff(oldR, newR, DiffOptions{AllocBudget: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	d := findDelta(t, res, "repair", "allocs/op")
	if d.Verdict != VerdictRegression {
		t.Fatalf("allocs/op verdict = %q, want %q", d.Verdict, VerdictRegression)
	}
}

// TestMinOfRuns: the per-stage minimum across runs absorbs a one-run
// scheduler spike that would otherwise read as a regression.
func TestMinOfRunsAbsorbsOutlier(t *testing.T) {
	base := report(1_000_000, 5_000)
	quiet := report(1_010_000, 5_000)
	spiked := report(1_400_000, 5_000) // interference on one run

	min := MinOfRuns([]*Report{spiked, quiet})
	if got := min.Entries[0].Stages["repair"].NsPerOp; got != 1_010_000 {
		t.Fatalf("min repair ns = %d, want 1010000", got)
	}
	res, err := Diff(base, min, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Regressions != 0 {
		t.Fatal("min-of-runs failed to absorb the outlier run")
	}
	// Sanity: the spiked run alone would have gated.
	res, err = Diff(base, spiked, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Regressions == 0 {
		t.Fatal("the outlier run alone should read as a regression")
	}
}

func TestDiffImprovement(t *testing.T) {
	oldR := report(1_000_000, 5_000)
	newR := report(600_000, 4_000)

	res, err := Diff(oldR, newR, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Regressions != 0 {
		t.Fatal("improvement flagged as regression")
	}
	if d := findDelta(t, res, "repair", "time/op"); d.Verdict != VerdictImproved {
		t.Fatalf("verdict = %q, want %q", d.Verdict, VerdictImproved)
	}
	var buf bytes.Buffer
	res.WriteTable(&buf, false)
	if !strings.Contains(buf.String(), "improved") {
		t.Fatalf("table missing improvement row:\n%s", buf.String())
	}
}
