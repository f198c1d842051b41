package sg_test

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/sg"
)

// This file retains the map-based state-coding checks and the
// per-signal detonant scan as differential-testing oracles for the code
// table and the once/twice masks of props.go: the same pair lists, in
// the same order, the same verdicts and the same property report.

// refCSCViolations groups the states by code in a map, sorts every
// code and lists each code's differing pairs.
func refCSCViolations(ix *sg.Index) []sg.CSCViolation {
	g := ix.G
	byCode := make(map[uint64][]int)
	for s := range g.States {
		byCode[g.States[s].Code] = append(byCode[g.States[s].Code], s)
	}
	var out []sg.CSCViolation
	codes := make([]uint64, 0, len(byCode))
	for c := range byCode {
		codes = append(codes, c)
	}
	sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
	for _, c := range codes {
		states := byCode[c]
		for i := 0; i < len(states); i++ {
			for j := i + 1; j < len(states); j++ {
				if ix.ExcitedOutputs(states[i]) != ix.ExcitedOutputs(states[j]) {
					out = append(out, sg.CSCViolation{A: states[i], B: states[j]})
				}
			}
		}
	}
	return out
}

// refUSC reports whether every code is unique, through a map.
func refUSC(g *sg.Graph) bool {
	seen := make(map[uint64]bool, len(g.States))
	for s := range g.States {
		if seen[g.States[s].Code] {
			return false
		}
		seen[g.States[s].Code] = true
	}
	return true
}

// refDetonants scans every state and signal, collecting the successors
// that excite the signal and testing every pair of them.
func refDetonants(ix *sg.Index, outputsOnly bool) []sg.Detonant {
	g := ix.G
	var out []sg.Detonant
	for w := range g.States {
		succ := g.States[w].Succ
		for sig := range g.Signals {
			if outputsOnly && g.Input[sig] {
				continue
			}
			if ix.Excited(w, sig) {
				continue
			}
			var hits []sg.Edge
			for _, e := range succ {
				if e.Signal != sig && ix.Excited(e.To, sig) {
					hits = append(hits, e)
				}
			}
			for i := 0; i < len(hits); i++ {
				for j := i + 1; j < len(hits); j++ {
					if ix.Excited(hits[i].To, hits[j].Signal) && ix.Excited(hits[j].To, hits[i].Signal) {
						out = append(out, sg.Detonant{State: w, Signal: sig, U: hits[i].To, V: hits[j].To})
					}
				}
			}
		}
	}
	return out
}

// refPersistencyViolations lists each non-input excitation region's
// trigger signals through Triggers, in trigger order, once each, and
// tests each with Concurrent.
func refPersistencyViolations(tab *sg.RegionTable) []sg.PersistencyViolation {
	g := tab.Idx.G
	var out []sg.PersistencyViolation
	for sig, regs := range tab.Regs {
		if g.Input[sig] {
			continue
		}
		for _, er := range regs.ER {
			seen := map[int]bool{}
			for _, tr := range g.Triggers(er) {
				if seen[tr.Signal] {
					continue
				}
				seen[tr.Signal] = true
				if g.Concurrent(er, tr.Signal) {
					out = append(out, sg.PersistencyViolation{Region: er, Trigger: tr.Signal})
				}
			}
		}
	}
	return out
}

// refCheck is the property report assembled from the reference checks.
func refCheck(tab *sg.RegionTable) sg.PropertyReport {
	ix, g := tab.Idx, tab.Idx.G
	conf := ix.Conflicts()
	dets := refDetonants(ix, false)
	rep := sg.PropertyReport{
		Consistent:    g.CheckConsistency() == nil,
		Persistent:    len(refPersistencyViolations(tab)) == 0,
		CSC:           len(refCSCViolations(ix)) == 0,
		USC:           refUSC(g),
		Detonants:     len(dets),
		States:        len(g.States),
		UniqueEntryOK: true,
	}
	internal := 0
	for _, c := range conf {
		if c.Internal {
			internal++
		}
	}
	rep.SemiModular = len(conf) == 0
	rep.InternalConflicts = internal
	rep.InputConflicts = len(conf) - internal
	rep.OutputSemiModular = internal == 0
	rep.Distributive = rep.SemiModular && rep.Detonants == 0
	rep.OutputDistrib = rep.OutputSemiModular && len(refDetonants(ix, true)) == 0
	for sig, regs := range tab.Regs {
		if g.Input[sig] {
			continue
		}
		for _, er := range regs.ER {
			if !er.UniqueEntry() {
				rep.UniqueEntryOK = false
			}
		}
	}
	return rep
}

// randomCubeGraph is a random consistent graph over the k-cube: a
// random subset of the 2^k codes, some of them held by two states, and
// a random subset of the single-bit edges between their states,
// restricted to the states reachable from the first. The last signal is
// an input.
func randomCubeGraph(rng *rand.Rand, k int) *sg.Graph {
	keep, double := 0.4+0.5*rng.Float64(), 0.3*rng.Float64()
	var codes []uint64
	for c := uint64(0); c < 1<<uint(k); c++ {
		if rng.Float64() < keep {
			codes = append(codes, c)
			if rng.Float64() < double {
				codes = append(codes, c)
			}
		}
	}
	rng.Shuffle(len(codes), func(i, j int) { codes[i], codes[j] = codes[j], codes[i] })
	edgeP := 0.5 + 0.5*rng.Float64()
	return cubeGraph(k, codes, func() bool { return rng.Float64() < edgeP })
}

// cubeGraphFromBytes is a consistent graph over the k-cube chosen by
// data: its first byte picks k from 3 to 7, and the rest, read bit by
// bit and cyclically (all ones when empty), keeps each code, doubles
// some of the kept ones and keeps each single-bit edge.
func cubeGraphFromBytes(data []byte) *sg.Graph {
	k := 3
	if len(data) > 0 {
		k += int(data[0]) % 5
		data = data[1:]
	}
	pos := 0
	next := func() bool {
		if len(data) == 0 {
			return true
		}
		b := data[pos/8%len(data)]>>uint(pos%8)&1 == 1
		pos++
		return b
	}
	var codes []uint64
	for c := uint64(0); c < 1<<uint(k); c++ {
		if next() {
			codes = append(codes, c)
			if next() && next() {
				codes = append(codes, c)
			}
		}
	}
	return cubeGraph(k, codes, next)
}

// cubeGraph builds the graph over states with the given codes whose
// edges are the single-bit steps between two states that keepEdge
// accepts, asked once per such ordered pair, restricted to the states
// reachable from the first. The last signal is an input.
func cubeGraph(k int, codes []uint64, keepEdge func() bool) *sg.Graph {
	succ := make([][]int, len(codes))
	for u := range codes {
		for v := range codes {
			if d := codes[u] ^ codes[v]; d != 0 && d&(d-1) == 0 && keepEdge() {
				succ[u] = append(succ[u], v)
			}
		}
	}
	g := &sg.Graph{Name: "cube", Input: make([]bool, k)}
	for i := 0; i < k; i++ {
		g.Signals = append(g.Signals, string(rune('a'+i)))
	}
	g.Input[k-1] = true
	if len(codes) == 0 {
		g.AddState(0)
		return g
	}
	id := map[int]int{0: g.AddState(codes[0])}
	for queue := []int{0}; len(queue) > 0; queue = queue[1:] {
		u := queue[0]
		for _, v := range succ[u] {
			if _, ok := id[v]; !ok {
				id[v] = g.AddState(codes[v])
				queue = append(queue, v)
			}
			sig := 0
			for codes[u]^codes[v] != 1<<uint(sig) {
				sig++
			}
			d := sg.Plus
			if codes[u]>>uint(sig)&1 == 1 {
				d = sg.Minus
			}
			if err := g.AddEdge(id[u], id[v], sig, d); err != nil {
				panic(err)
			}
		}
	}
	return g
}

// checkAgainstReference compares the property checks of g with the
// reference ones and reports how many detonant states g has.
func checkAgainstReference(t *testing.T, name string, g *sg.Graph) int {
	t.Helper()
	tab := sg.NewRegionTable(g)
	ix := tab.Idx
	if got, want := ix.CSCViolations(), refCSCViolations(ix); !slices.Equal(got, want) {
		t.Fatalf("%s: CSC violations %v, reference %v", name, got, want)
	}
	if got, want := g.USC(), refUSC(g); got != want {
		t.Fatalf("%s: USC %v, reference %v", name, got, want)
	}
	for _, outputsOnly := range []bool{false, true} {
		if got, want := ix.Detonants(outputsOnly), refDetonants(ix, outputsOnly); !slices.Equal(got, want) {
			t.Fatalf("%s: detonants (outputs only %v) %v, reference %v", name, outputsOnly, got, want)
		}
	}
	if got, want := tab.PersistencyViolations(), refPersistencyViolations(tab); !slices.Equal(got, want) {
		t.Fatalf("%s: persistency violations %v, reference %v", name, got, want)
	}
	got, want := tab.Check(), refCheck(tab)
	if !reflect.DeepEqual(got, want) || got.String() != want.String() {
		t.Fatalf("%s: report\n%s\nreference\n%s", name, got, want)
	}
	return len(refDetonants(ix, false))
}

func TestDifferentialPropertiesVsReference(t *testing.T) {
	shared := 0
	for name, g := range propertyGraphs(t) {
		checkAgainstReference(t, name, g)
		if !refUSC(g) {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no property graph shares a code; the code table's groups go untested")
	}
	rng := rand.New(rand.NewSource(1))
	graphs, detonant, dets, cscFails := 0, 0, 0, 0
	for k := 3; k <= 7; k++ {
		for i := 0; i < 600; i++ {
			g := randomCubeGraph(rng, k)
			graphs++
			if n := checkAgainstReference(t, "cube", g); n > 0 {
				detonant++
				dets += n
			}
			if len(refCSCViolations(sg.NewIndex(g))) > 0 {
				cscFails++
			}
		}
	}
	if detonant == 0 || cscFails == 0 {
		t.Fatalf("%d random cube graphs: %d with detonants, %d without CSC; want some of each", graphs, detonant, cscFails)
	}
	t.Logf("%d random cube graphs: %d with detonants (%d in all), %d without CSC", graphs, detonant, dets, cscFails)
}
