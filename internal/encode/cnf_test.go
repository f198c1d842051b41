package encode

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sat"
	"repro/internal/sg"
)

// lits returns the literal pair asserting that a state has label l.
func (lv labelVars) lits(l Label) (sat.Lit, sat.Lit) {
	switch l {
	case L0:
		return sat.Lit(-lv.v1), sat.Lit(-lv.v0)
	case LR:
		return sat.Lit(-lv.v1), sat.Lit(lv.v0)
	case L1:
		return sat.Lit(lv.v1), sat.Lit(lv.v0)
	default:
		return sat.Lit(lv.v1), sat.Lit(-lv.v0)
	}
}

var allLabels = [4]Label{L0, LR, L1, LF}

// buildCNFReference is buildCNF with the forbidden-pair edge encoding
// it replaced: one 4-literal clause for every (from, to) label pair an
// edge may not take — eight per edge, ten on an input edge, where the
// delayed pairs are forbidden too. It is the reference the edge
// encoding is checked against.
func buildCNFReference(s *sat.Solver, g *sg.Graph) []labelVars {
	vars := newLabelVars(s, g.NumStates())
	for st := range g.States {
		for _, e := range g.States[st].Succ {
			for _, lf := range allLabels {
				for _, lt := range allLabels {
					ok, delayed := allowedEdge(lf, lt)
					if ok && (!delayed || !g.Input[e.Signal]) {
						continue
					}
					a1, a0 := vars[st].lits(lf)
					b1, b0 := vars[e.To].lits(lt)
					s.AddClause(a1.Neg(), a0.Neg(), b1.Neg(), b0.Neg())
				}
			}
		}
	}
	addNonTriviality(s, vars)
	return vars
}

// edgeVerdicts encodes the one edge of a two-state graph with
// edgeClauses, leaving out clause skip (-1 keeps them all), and
// reports for every (from, to) label pair whether the clauses are
// satisfiable under assumptions pinning both labels.
func edgeVerdicts(g *sg.Graph, skip int) (verdicts [4][4]bool, n int) {
	s := sat.NewWith(sat.Config{Canonical: true})
	vars := newLabelVars(s, g.NumStates())
	e := g.States[0].Succ[0]
	cl, n := edgeClauses(vars[0], vars[e.To], g.Input[e.Signal])
	for i := range cl[:n] {
		if i != skip {
			s.AddClause(cl[i][:]...)
		}
	}
	for _, lf := range allLabels {
		for _, lt := range allLabels {
			a1, a0 := vars[0].lits(lf)
			b1, b0 := vars[e.To].lits(lt)
			verdicts[lf][lt] = s.Solve(a1, a0, b1, b0)
		}
	}
	return verdicts, n
}

// Each of the 16 (from, to) label pairs of a single edge is
// satisfiable exactly when allowedEdge permits it and, on an input
// edge, it is not a delayed pair; and every clause of the encoding is
// needed: without any one of them some forbidden pair is admitted.
func TestEdgeClausesAdmitExactlyTheAllowedPairs(t *testing.T) {
	for _, input := range []bool{false, true} {
		t.Run(fmt.Sprintf("input=%v", input), func(t *testing.T) {
			g := &sg.Graph{Name: "edge", Signals: []string{"a"}, Input: []bool{input}}
			g.AddState(0)
			g.AddState(1)
			if err := g.AddEdge(0, 1, 0, sg.Plus); err != nil {
				t.Fatal(err)
			}
			var want [4][4]bool
			for _, lf := range allLabels {
				for _, lt := range allLabels {
					ok, delayed := allowedEdge(lf, lt)
					want[lf][lt] = ok && !(delayed && input)
				}
			}
			got, n := edgeVerdicts(g, -1)
			for _, lf := range allLabels {
				for _, lt := range allLabels {
					if got[lf][lt] != want[lf][lt] {
						t.Errorf("%s → %s: satisfiable %v, want %v", lf, lt, got[lf][lt], want[lf][lt])
					}
				}
			}
			if wantN := map[bool]int{false: 4, true: 6}[input]; n != wantN {
				t.Errorf("%d clauses, want %d", n, wantN)
			}
			for skip := 0; skip < n; skip++ {
				if got, _ := edgeVerdicts(g, skip); got == want {
					t.Errorf("without clause %d the edge still admits exactly the allowed pairs", skip)
				}
			}
		})
	}
}

// CanonicalModelSequences enumerates g's round-0 labellings on one
// canonical solver, as a repair round does: under the assumptions of
// every default strategy on the graph's first MC conflict (Free alone
// when it has none), each pair's models blocked globally over the
// label variables, at most maxModels per strategy. The formula uses
// the edge encoding, or with reference the forbidden-pair encoding it
// replaced. It is exported for the differential test in
// differential_test.go, which needs the benchmark graphs.
func CanonicalModelSequences(g *sg.Graph, reference bool, maxModels int) [][][]Label {
	rep := core.NewAnalyzer(g).CheckGraph()
	confl := mcConflicts(g, rep)
	var c conflict
	strategies := []Strategy{Free}
	if len(confl) > 0 {
		opts := Options{}
		opts.fill()
		c, strategies = confl[0], opts.Strategies
	}
	s := sat.NewWith(sat.Config{Canonical: true})
	var vars []labelVars
	if reference {
		vars = buildCNFReference(s, g)
	} else {
		vars = buildCNF(s, g)
	}
	blockVars := make([]int, 0, 2*len(vars))
	for _, lv := range vars {
		blockVars = append(blockVars, lv.v1, lv.v0)
	}
	out := make([][][]Label, len(strategies))
	for i, strat := range strategies {
		assume := assumptionsFor(strat, c, vars)
		for len(out[i]) < maxModels && s.Solve(assume...) {
			labels := make([]Label, len(vars))
			for j, lv := range vars {
				labels[j] = labelOf(s, lv)
			}
			out[i] = append(out[i], labels)
			if !s.BlockModel(blockVars...) {
				break
			}
		}
	}
	return out
}
