package sg_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/benchdata"
	"repro/internal/encode"
	"repro/internal/sg"
	"repro/internal/stg"
)

// This file holds the region table, which labels every signal's
// regions in one word-parallel pass, to RegionsOf, which decomposes one
// signal at a time by a DFS: the two must agree in every field of every
// region, on every graph.

// namedGraph is one graph of a differential corpus.
type namedGraph struct {
	name string
	g    *sg.Graph
}

// tableCorpus is the region table's differential corpus: the property
// graphs; 3,000 random k-cube subgraphs, many of them non-persistent
// and detonant; the seven wide-fork inputs of the benchmark's wide
// workload; the Table-1 specifications and the graphs their repair
// produces; selector rings of 2 to 8 phases, whose input has one
// excitation region per phase; and a 64-signal graph, whose masks use
// every bit of the word.
func tableCorpus(t *testing.T) []namedGraph {
	t.Helper()
	var out []namedGraph
	build := func(net *stg.STG) *sg.Graph {
		g, err := stg.BuildSG(net)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedGraph{net.Name, g})
		return g
	}
	props := propertyGraphs(t)
	names := make([]string, 0, len(props))
	for name := range props {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out = append(out, namedGraph{name, props[name]})
	}
	rng := rand.New(rand.NewSource(1))
	for k := 3; k <= 7; k++ {
		for i := 0; i < 600; i++ {
			out = append(out, namedGraph{fmt.Sprintf("cube%d#%d", k, i), randomCubeGraph(rng, k)})
		}
	}
	for _, k := range []int{9, 10, 12} {
		build(benchdata.GenParallelizer(k))
	}
	for _, wd := range [][2]int{{4, 3}, {4, 4}, {6, 2}, {5, 3}} {
		build(benchdata.GenWideFork(rng.Int63(), wd[0], wd[1]).Net)
	}
	for _, e := range benchdata.Table1 {
		res, err := encode.Repair(build(e.STG()), encode.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: repair: %v", e.Name, err)
		}
		out = append(out, namedGraph{e.Name + "-repaired", res.G})
	}
	for k := 2; k <= 8; k++ {
		build(benchdata.GenSelectorRing(k))
	}
	build(twoRings(32))
	return out
}

// twoRings runs two k-signal Johnson counters side by side: signals
// a0…a(k−1) and b0…b(k−1), each ring its own cycle a0+ … a(k−1)+ a0− …
// a(k−1)−, so the graph is their product, 4k² states over 2k signals.
func twoRings(k int) *stg.STG {
	b := stg.NewBuilder(fmt.Sprintf("tworings%d", k))
	for _, r := range []string{"a", "b"} {
		var seq []string
		for i := 0; i < k; i++ {
			kind := stg.Output
			if i == 0 {
				kind = stg.Input
			}
			b.Signal(fmt.Sprintf("%s%d", r, i), kind)
			seq = append(seq, fmt.Sprintf("%s%d+", r, i))
		}
		for i := 0; i < k; i++ {
			seq = append(seq, fmt.Sprintf("%s%d-", r, i))
		}
		for i, tr := range seq {
			b.Arc(tr, seq[(i+1)%len(seq)])
		}
		b.MarkBetween(seq[len(seq)-1], seq[0])
	}
	return b.Build()
}

// diffRegions describes the first field in which a table's
// decomposition differs from the reference, or returns "".
func diffRegions(got, want *sg.Regions) string {
	if got.Signal != want.Signal {
		return fmt.Sprintf("signal %d, reference %d", got.Signal, want.Signal)
	}
	if !slices.Equal(got.QRAfter, want.QRAfter) {
		return fmt.Sprintf("QRAfter %v, reference %v", got.QRAfter, want.QRAfter)
	}
	for _, kind := range []struct {
		name      string
		got, want []*sg.Region
	}{{"ER", got.ER, want.ER}, {"QR", got.QR, want.QR}} {
		if len(kind.got) != len(kind.want) {
			return fmt.Sprintf("%d %ss, reference %d", len(kind.got), kind.name, len(kind.want))
		}
		for i, r := range kind.got {
			ref := kind.want[i]
			switch {
			case r.Signal != ref.Signal || r.Dir != ref.Dir || r.Index != ref.Index:
				return fmt.Sprintf("%s #%d is (%d, %s, %d), reference (%d, %s, %d)",
					kind.name, i, r.Signal, r.Dir, r.Index, ref.Signal, ref.Dir, ref.Index)
			case !slices.Equal(r.States, ref.States):
				return fmt.Sprintf("%s #%d states %v, reference %v", kind.name, i, r.States, ref.States)
			case !slices.Equal(r.Min, ref.Min):
				return fmt.Sprintf("%s #%d minimal states %v, reference %v", kind.name, i, r.Min, ref.Min)
			case !slices.Equal(r.Set(), ref.Set()):
				return fmt.Sprintf("%s #%d set %x, reference %x", kind.name, i, r.Set(), ref.Set())
			}
		}
	}
	return ""
}

// checkTable compares g's region table with RegionsOf, signal by
// signal, and returns the largest region count of one class of one
// signal.
func checkTable(t *testing.T, name string, g *sg.Graph) int {
	t.Helper()
	tab := sg.NewRegionTable(g)
	if len(tab.Regs) != g.NumSignals() {
		t.Fatalf("%s: table has %d signals, graph %d", name, len(tab.Regs), g.NumSignals())
	}
	most := 0
	for sig, regs := range tab.Regs {
		if d := diffRegions(regs, tab.Idx.RegionsOf(sig)); d != "" {
			t.Fatalf("%s/%s: table decomposition differs from RegionsOf: %s", name, g.Signals[sig], d)
		}
		var count [2][2]int // [ER, QR][Plus, Minus]
		for kind, rs := range [][]*sg.Region{regs.ER, regs.QR} {
			for _, r := range rs {
				d := 0
				if r.Dir == sg.Minus {
					d = 1
				}
				count[kind][d]++
				most = max(most, count[kind][d])
			}
		}
	}
	return most
}

// A region table holds exactly the per-signal decompositions RegionsOf
// computes, and its index's early-exit output semi-modularity check
// agrees with the conflict list.
func TestRegionTableMatchesRegionsOf(t *testing.T) {
	corpus := tableCorpus(t)
	most, where := 0, ""
	for _, c := range corpus {
		if m := checkTable(t, c.name, c.g); m > most {
			most, where = m, c.name
		}
		if got, want := sg.NewIndex(c.g).OutputSemiModular(), len(c.g.InternalConflicts()) == 0; got != want {
			t.Fatalf("%s: OutputSemiModular %v, internal conflicts say %v", c.name, got, want)
		}
	}
	// A class of one signal with three regions takes three labelling
	// rounds, so the re-seeding after the first round runs.
	if most < 3 {
		t.Fatalf("%d graphs: at most %d regions in one class of one signal, want a graph with 3 or more", len(corpus), most)
	}
	t.Logf("%d graphs; up to %d regions in one class of one signal (%s)", len(corpus), most, where)
}

// NewRegionTable labels all signals in scratch it drops and carves
// each signal's regions to their size, so on fork12 (8,192 states, 13
// signals) it allocates fewer bytes than decomposing the signals one
// by one, the way it did before: 3,173,552 bytes in 83 allocations.
// Beyond the index and the table, each signal makes six allocations
// and the labelling two.
func TestRegionTableAllocationBound(t *testing.T) {
	g, err := stg.BuildSG(benchdata.GenParallelizer(12))
	if err != nil {
		t.Fatal(err)
	}
	const perSignalBytes = 3173552
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sg.NewRegionTable(g)
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b > perSignalBytes {
		t.Errorf("NewRegionTable on fork12 allocated %d bytes, want ≤ %d", b, perSignalBytes)
	}
	limit := float64(7*g.NumSignals() + 3)
	if n := testing.AllocsPerRun(3, func() { sg.NewRegionTable(g) }); n > limit {
		t.Errorf("NewRegionTable on fork12 makes %.0f allocations, want ≤ %.0f", n, limit)
	}
}

// FuzzRegionTable holds the region table to RegionsOf on consistent
// subgraphs of the k-cube chosen by the fuzz input.
func FuzzRegionTable(f *testing.F) {
	for _, seed := range []string{"", "\x03\xff\xff", "\x07\x5a\xa5\x33\xcc\x0f\xf0", "\x05\x01\x02\x03\x04\x05\x06\x07\x08"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkTable(t, "fuzz", cubeGraphFromBytes(data))
	})
}
