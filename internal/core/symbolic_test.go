package core_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/sg"
)

// Differential tests of the symbolic Monotonous Cover machinery against
// the explicit engine on the same graphs: region decompositions must
// describe the same state sets, and per-region cover-existence verdicts
// must agree.

// symSetStates enumerates a GraphSpace state-set BDD back into sorted
// explicit state ids.
func symSetStates(sp *core.GraphSpace, set int) []int {
	vars := sp.StateVars()
	var out []int
	sp.Manager().ForEachSat(set, vars, func(assign []bool) bool {
		s := 0
		for i := range vars {
			if assign[i] {
				s |= 1 << uint(i)
			}
		}
		out = append(out, s)
		return true
	})
	sort.Ints(out)
	return out
}

func fingerprint(states []int) string { return fmt.Sprint(states) }

// TestSymRegionsMatchExplicit checks that the symbolic region
// decomposition over the index-bit space partitions states exactly like
// the explicit one: same ER and QR sets with the same directions, and
// the same ER → following-QR association. Component indices may differ
// (the engines discover components in different orders), so regions are
// matched by state set.
func TestSymRegionsMatchExplicit(t *testing.T) {
	for name, g := range diffGraphs(t) {
		a := core.NewAnalyzerN(g, 1)
		sp := core.NewGraphSpace(g, a.Idx)
		for sig := 0; sig < g.NumSignals(); sig++ {
			exp := a.Regs[sig]
			got := core.SymRegionsOf(sp, sig)
			if len(got.ER) != len(exp.ER) || len(got.QR) != len(exp.QR) {
				t.Fatalf("%s %s: %d ER / %d QR symbolic vs %d / %d explicit",
					name, g.Signals[sig], len(got.ER), len(got.QR), len(exp.ER), len(exp.QR))
			}
			// Explicit region fingerprint → (kind, position) for matching.
			type key struct {
				qr bool
				fp string
			}
			expAt := map[key]int{}
			expDir := map[key]sg.Dir{}
			for i, er := range exp.ER {
				k := key{false, fingerprint(append([]int(nil), er.States...))}
				expAt[k] = i
				expDir[k] = er.Dir
			}
			for i, qr := range exp.QR {
				k := key{true, fingerprint(append([]int(nil), qr.States...))}
				expAt[k] = i
				expDir[k] = qr.Dir
			}
			// Map symbolic region position → matched explicit position.
			erMap := make([]int, len(got.ER))
			qrMap := make([]int, len(got.QR))
			for i, er := range got.ER {
				k := key{false, fingerprint(symSetStates(sp, er.Set))}
				j, ok := expAt[k]
				if !ok {
					t.Fatalf("%s %s: symbolic ER %s has no explicit twin", name, g.Signals[sig], k.fp)
				}
				if expDir[k] != er.Dir {
					t.Fatalf("%s %s: ER %s direction mismatch", name, g.Signals[sig], k.fp)
				}
				erMap[i] = j
			}
			for i, qr := range got.QR {
				k := key{true, fingerprint(symSetStates(sp, qr.Set))}
				j, ok := expAt[k]
				if !ok {
					t.Fatalf("%s %s: symbolic QR %s has no explicit twin", name, g.Signals[sig], k.fp)
				}
				if expDir[k] != qr.Dir {
					t.Fatalf("%s %s: QR %s direction mismatch", name, g.Signals[sig], k.fp)
				}
				qrMap[i] = j
			}
			for i := range got.ER {
				want := exp.QRAfter[erMap[i]]
				have := got.QRAfter[i]
				if (want < 0) != (have < 0) {
					t.Fatalf("%s %s: ER %d QRAfter presence mismatch", name, g.Signals[sig], i)
				}
				if want >= 0 && qrMap[have] != want {
					t.Fatalf("%s %s: ER %d follows QR %d symbolically, %d explicitly",
						name, g.Signals[sig], i, qrMap[have], want)
				}
			}
		}
	}
}

// TestSymMCViolationMatchesExplicit compares the existence-only symbolic
// verdict with the explicit FindMC on every excitation region of every
// non-input signal: a region has a monotonous cover under one engine iff
// it has one under the other.
func TestSymMCViolationMatchesExplicit(t *testing.T) {
	for name, g := range diffGraphs(t) {
		a := core.NewAnalyzerN(g, 1)
		sp := core.NewGraphSpace(g, a.Idx)
		for sig := 0; sig < g.NumSignals(); sig++ {
			if g.Input[sig] {
				continue
			}
			exp := a.Regs[sig]
			symRegs := core.SymRegionsOf(sp, sig)
			// Match symbolic regions back to explicit indices so verdicts
			// compare region-for-region.
			fpToSym := map[string]int{}
			for i, er := range symRegs.ER {
				fpToSym[fingerprint(symSetStates(sp, er.Set))] = i
			}
			for i, er := range exp.ER {
				j, ok := fpToSym[fingerprint(append([]int(nil), er.States...))]
				if !ok {
					t.Fatalf("%s %s: explicit ER %d missing symbolically", name, g.Signals[sig], i)
				}
				_, v := a.FindMC(er)
				expBad := v != nil
				gotBad := core.SymMCViolation(sp, symRegs, j)
				if expBad != gotBad {
					t.Fatalf("%s: ER(%s%s,%d) violation=%v explicit, %v symbolic",
						name, er.Dir, g.Signals[sig], er.Index, expBad, gotBad)
				}
			}
		}
	}
}
