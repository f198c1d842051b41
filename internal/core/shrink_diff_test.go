package core_test

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/benchdata"
	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/sg"
	"repro/internal/stg"
)

// wideGraphs are the seven specifications of perfbench's wide workload
// at its default seed: parallelizers of 9, 10 and 12 branches and four
// wide forks, 516 to 8,192 states.
func wideGraphs(t *testing.T) map[string]*sg.Graph {
	t.Helper()
	nets := []*stg.STG{benchdata.GenParallelizer(9), benchdata.GenParallelizer(10), benchdata.GenParallelizer(12)}
	rng := rand.New(rand.NewSource(1))
	for _, wd := range [][2]int{{4, 3}, {4, 4}, {6, 2}, {5, 3}} {
		nets = append(nets, benchdata.GenWideFork(rng.Int63(), wd[0], wd[1]).Net)
	}
	out := map[string]*sg.Graph{}
	for _, net := range nets {
		g, err := stg.BuildSG(net)
		if err != nil {
			t.Fatal(err)
		}
		out[net.Name] = g
	}
	return out
}

// duplicatorExpansions returns every graph a repair round can score on
// duplicator's specification graph: the expansion by x0 of each
// labelling that Expand accepts. Across every edge a label stays or
// takes one step of 0 → up → 1 → down → 0; the enumeration prunes on
// that rule and leaves the rest to Expand. The graphs duplicator's
// first repair round scores are among them.
func duplicatorExpansions(t *testing.T) []*sg.Graph {
	t.Helper()
	src, err := os.ReadFile("../../testdata/duplicator.g")
	if err != nil {
		t.Fatal(err)
	}
	g, err := stg.BuildSG(stg.MustParse(string(src)))
	if err != nil {
		t.Fatal(err)
	}
	step := func(f, to encode.Label) bool { return to == f || to == (f+1)%4 }
	labels := make([]encode.Label, g.NumStates())
	var out []*sg.Graph
	var label func(s int)
	label = func(s int) {
		if s == len(labels) {
			if g2, err := encode.Expand(g, labels, "x0"); err == nil {
				out = append(out, g2)
			}
			return
		}
	next:
		for l := encode.L0; l <= encode.LF; l++ {
			for _, e := range g.States[s].Succ {
				if e.To < s && !step(l, labels[e.To]) {
					continue next
				}
			}
			for _, e := range g.States[s].Pred {
				if e.To < s && !step(labels[e.To], l) {
					continue next
				}
			}
			labels[s] = l
			label(s + 1)
		}
	}
	label(0)
	return out
}

// Every literal drop shrink tries must get from dropKeepsCover, which
// tests only the states the drop newly covers, the verdict of the full
// check: on the differential graphs, the wide workload's specifications
// and every expansion of duplicator a repair round can score.
func TestDifferentialShrinkDropsVsFullCheck(t *testing.T) {
	graphs := diffGraphs(t)
	for name, g := range wideGraphs(t) {
		graphs[name] = g
	}
	for i, g := range duplicatorExpansions(t) {
		graphs[fmt.Sprintf("duplicator+x0 #%d", i)] = g
	}
	kept, rejected := 0, 0
	for name, g := range graphs {
		k, r, err := core.ShrinkDrops(core.NewAnalyzer(g))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		kept, rejected = kept+k, rejected+r
	}
	if kept == 0 || rejected == 0 {
		t.Fatalf("%d drops kept, %d rejected; want some of each", kept, rejected)
	}
	t.Logf("%d graphs: %d literal drops kept, %d rejected, each with the full check's verdict", len(graphs), kept, rejected)
}
