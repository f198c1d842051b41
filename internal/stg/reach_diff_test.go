package stg_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/benchdata"
	"repro/internal/stg"
)

// Differential tests pinning BuildSG — the arena/hash-table explorer
// and the word-per-state encoding inference — against the retained
// references (BuildSGRef): identical graphs — same state numbering,
// codes and edge order — or identical error texts on the Table-1
// benchmarks, the generated scaling families, random series-parallel
// specifications and mutants of them with flipped or relabelled
// transitions (same style as internal/core/diff_test.go).

func diffNets() map[string]*stg.STG {
	out := map[string]*stg.STG{}
	for _, e := range benchdata.Table1 {
		out[e.Name] = e.STG()
	}
	out["chain8"] = benchdata.GenBufferChain(8)
	out["fork6"] = benchdata.GenParallelizer(6)
	out["sel3"] = benchdata.GenSelectorRing(3)
	for seed := int64(0); seed < 15; seed++ {
		spec := benchdata.GenRandomSpec(seed, 3)
		out[spec.Net.Name] = spec.Net
	}
	return out
}

func TestDifferentialBuildSGVsMapReference(t *testing.T) {
	for name, net := range diffNets() {
		got, gerr := stg.BuildSG(net)
		want, werr := stg.BuildSGRef(net, stg.DefaultStateLimit)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s: error mismatch: %v vs reference %v", name, gerr, werr)
		}
		if gerr != nil {
			if gerr.Error() != werr.Error() {
				t.Fatalf("%s: error text mismatch: %q vs reference %q", name, gerr, werr)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: graphs differ:\n--- got ---\n%s--- reference ---\n%s",
				name, got.Dump(), want.Dump())
		}
	}
}

// sameBuild reports how BuildSG and BuildSGRef differ on net, or ""
// when both return an equal graph or the same error text.
func sameBuild(net *stg.STG, limit int) string {
	got, gerr := stg.BuildSGLimit(net, limit)
	want, werr := stg.BuildSGRef(net, limit)
	switch {
	case (gerr == nil) != (werr == nil):
		return fmt.Sprintf("error mismatch: %v vs reference %v", gerr, werr)
	case gerr != nil && gerr.Error() != werr.Error():
		return fmt.Sprintf("error text mismatch: %q vs reference %q", gerr, werr)
	case gerr == nil && !reflect.DeepEqual(got, want):
		return fmt.Sprintf("graphs differ:\n--- got ---\n%s--- reference ---\n%s", got.Dump(), want.Dump())
	}
	return ""
}

// mutants returns the variants of net with one transition changed, its
// direction flipped or its signal relabelled to the next signal, which
// break the state assignment of a live net; with two transitions of
// different signals flipped, which can break both signals on one edge,
// where only the lower one may be reported; and with every transition
// of one signal flipped, which keep it consistent with that signal
// starting at the other value.
func mutants(net *stg.STG) []*stg.STG {
	var out []*stg.STG
	mutant := func(change func(tr []stg.Transition)) {
		m := *net
		m.Trans = slices.Clone(net.Trans)
		change(m.Trans)
		out = append(out, &m)
	}
	for t := range net.Trans {
		mutant(func(tr []stg.Transition) { tr[t].Dir = -tr[t].Dir })
		mutant(func(tr []stg.Transition) { tr[t].Signal = (tr[t].Signal + 1) % len(net.Signals) })
		for u := t + 1; u < len(net.Trans); u++ {
			if net.Trans[u].Signal != net.Trans[t].Signal {
				mutant(func(tr []stg.Transition) { tr[t].Dir, tr[u].Dir = -tr[t].Dir, -tr[u].Dir })
			}
		}
	}
	for sig := range net.Signals {
		mutant(func(tr []stg.Transition) {
			for t := range tr {
				if tr[t].Signal == sig {
					tr[t].Dir = -tr[t].Dir
				}
			}
		})
	}
	return out
}

// The word-per-state encoding inference must build the same graph, or
// report the same error, as the byte-per-signal reference on every
// mutant of the Table-1 nets, random specifications and wide forks.
func TestDifferentialBuildSGMutantNets(t *testing.T) {
	var nets []*stg.STG
	for _, e := range benchdata.Table1 {
		nets = append(nets, e.STG())
	}
	for seed := int64(0); seed < 15; seed++ {
		nets = append(nets, benchdata.GenRandomSpec(seed, 3).Net, benchdata.GenRandomSpec(seed, 6).Net)
	}
	for seed, wd := range [][2]int{{2, 2}, {3, 2}, {4, 1}, {3, 3}} {
		nets = append(nets, benchdata.GenWideFork(int64(seed), wd[0], wd[1]).Net)
	}
	graphs, errs := 0, 0
	for _, net := range nets {
		for i, m := range mutants(net) {
			if diff := sameBuild(m, 1<<14); diff != "" {
				t.Fatalf("%s, mutant %d: %s", net.Name, i, diff)
			}
			if _, err := stg.BuildSGLimit(m, 1<<14); err != nil {
				errs++
			} else {
				graphs++
			}
		}
	}
	if graphs == 0 || errs == 0 {
		t.Fatalf("%d mutants built, %d failed; want some of each", graphs, errs)
	}
	t.Logf("%d mutants built equal graphs, %d gave equal errors", graphs, errs)
}

func TestDifferentialBuildSGStateLimit(t *testing.T) {
	// Both explorers must report the limit at the same threshold.
	net := benchdata.GenBufferChain(8)
	for _, limit := range []int{1, 2, 5, 16, 17, 18, 1 << 10} {
		_, gerr := stg.BuildSGLimit(net, limit)
		_, werr := stg.BuildSGRef(net, limit)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("limit %d: error mismatch: %v vs reference %v", limit, gerr, werr)
		}
		if gerr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("limit %d: error text mismatch: %q vs reference %q", limit, gerr, werr)
		}
	}
}

// unsafeNet fires a+ (consuming q) into the already-marked place p —
// the canonical 1-safety violation.
const unsafeNet = `
.model unsafe
.inputs a
.outputs b
.graph
q a+
a+ p
p b+
.marking { p q }
.end
`

func TestBuildSGUnsafeNet(t *testing.T) {
	// Regression for the 1-safety error path: a failed fire must report
	// the doubly-marked place (and, since the scratch-marking rework, do
	// so without cloning a marking per attempt). Both explorers agree on
	// the exact error.
	net := stg.MustParse(unsafeNet)
	g, err := stg.BuildSG(net)
	if err == nil {
		t.Fatalf("unsafe net built a graph:\n%s", g.Dump())
	}
	if !strings.Contains(err.Error(), "not 1-safe") {
		t.Fatalf("error %q does not mention 1-safety", err)
	}
	_, werr := stg.BuildSGRef(net, stg.DefaultStateLimit)
	if werr == nil || werr.Error() != err.Error() {
		t.Fatalf("reference disagrees: %v vs %v", werr, err)
	}
}

func TestBuildSGUnsafeNetDoesNotLeakPerAttempt(t *testing.T) {
	// The error is detected on the very first expansion; the whole
	// attempt should stay within the fixed setup allocations (masks,
	// table, scratches) rather than cloning markings per fire.
	net := stg.MustParse(unsafeNet)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := stg.BuildSG(net); err == nil {
			t.Fatal("unsafe net must not build")
		}
	})
	if allocs > 32 {
		t.Fatalf("unsafe-net BuildSG costs %.0f allocs/attempt; the error path is leaking", allocs)
	}
}
