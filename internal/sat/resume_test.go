package sat

import (
	"math/rand"
	"testing"
)

// enumOracle is the brute-force reference for canonical enumeration:
// the formula, every clause added since, and the projection clause of
// every blocked model.
type enumOracle struct {
	n       int
	clauses [][]Lit
}

// lexLeast returns the lexicographically least model of the oracle's
// clauses under the assumptions, or nil.
func (o *enumOracle) lexLeast(assumptions []Lit) []bool {
	cnf := append([][]Lit(nil), o.clauses...)
	for _, a := range assumptions {
		cnf = append(cnf, []Lit{a})
	}
	return lexLeastModel(o.n, cnf)
}

// block records the projection clause forbidding model on vars (every
// variable when vars is empty).
func (o *enumOracle) block(model []bool, vars []int) {
	if len(vars) == 0 {
		for v := 1; v <= o.n; v++ {
			vars = append(vars, v)
		}
	}
	cl := make([]Lit, len(vars))
	for i, v := range vars {
		cl[i] = Lit(v)
		if model[v-1] {
			cl[i] = Lit(-v)
		}
	}
	o.clauses = append(o.clauses, cl)
}

// definedCNF builds a random formula whose variables above free are
// functions of lower ones (y ↔ a ∧ b for random literals a, b), the
// way encode's up/down variables are functions of the label variables:
// canonical branching assigns every input before reaching y, so y is
// always implied and never decided. Random clauses over all variables
// are added on top.
func definedCNF(rr *rand.Rand, free, n int) [][]Lit {
	lit := func(maxVar int) Lit {
		l := Lit(1 + rr.Intn(maxVar))
		if rr.Intn(2) == 0 {
			l = -l
		}
		return l
	}
	var cnf [][]Lit
	for y := free + 1; y <= n; y++ {
		a, b := lit(y-1), lit(y-1)
		cnf = append(cnf, []Lit{Lit(-y), a}, []Lit{Lit(-y), b}, []Lit{Lit(y), a.Neg(), b.Neg()})
	}
	return append(cnf, randomCNF(rr, n, rr.Intn(n+1))...)
}

// randomAssumptions returns k literals over distinct random variables.
func randomAssumptions(rr *rand.Rand, n, k int) []Lit {
	var out []Lit
	for _, v := range rr.Perm(n)[:k] {
		l := Lit(v + 1)
		if rr.Intn(2) == 0 {
			l = -l
		}
		out = append(out, l)
	}
	return out
}

// TestInterleavedEnumerationAgainstOracle drives one canonical solver
// through random interleavings of the calls the repair loop makes:
// Solve under a pool of assumption sets (some extending others, as
// packing probes extend a seed), BlockModel after SAT answers over all
// variables, over the free variables (which determine the rest) and
// over a narrower projection, plus AddClause, ExportLearnts and
// ImportLearnts in between. Every answer must be the lexicographically
// least model of the formula, the blocked projections and the
// assumptions, computed by brute force. Both blocking paths must be
// exercised: the resumable decision clause and the level-0 projection
// clause.
func TestInterleavedEnumerationAgainstOracle(t *testing.T) {
	resumed, projected := 0, 0
	for seed := int64(1); seed <= 400; seed++ {
		rr := rand.New(rand.NewSource(seed))
		free := 2 + rr.Intn(5)
		n := free + rr.Intn(4)
		cnf := definedCNF(rr, free, n)
		s := NewWith(Config{Canonical: true})
		o := &enumOracle{n: n, clauses: append([][]Lit(nil), cnf...)}
		if !addAll(s, n, cnf) {
			if o.lexLeast(nil) != nil {
				t.Fatalf("seed %d: AddClause refuted a satisfiable formula", seed)
			}
			continue
		}

		// The assumption pool: no assumptions, two seeds, and probes
		// extending each seed by one or two literals.
		pool := [][]Lit{nil}
		for i := 0; i < 2; i++ {
			base := randomAssumptions(rr, n, 1+rr.Intn(2))
			pool = append(pool, base)
			for _, l := range randomAssumptions(rr, n, 1+rr.Intn(2)) {
				if !containsVar(base, l.Var()) {
					base = append(base[:len(base):len(base)], l)
				}
			}
			pool = append(pool, base)
		}
		projections := [][]int{nil, seq(1, free), seq(1, free-1)}

		for step := 0; step < 60; step++ {
			switch r := rr.Intn(20); {
			case r < 14:
				assume := pool[rr.Intn(len(pool))]
				want := o.lexLeast(assume)
				got := s.Solve(assume...)
				if got != (want != nil) {
					t.Fatalf("seed %d step %d: Solve(%v) = %v, oracle SAT = %v", seed, step, assume, got, want != nil)
				}
				if !got {
					continue
				}
				if m := s.Model(); !modelsEqual(m, want) {
					t.Fatalf("seed %d step %d: Solve(%v) model %v, want lex-least %v", seed, step, assume, m, want)
				}
				if rr.Intn(5) == 0 {
					continue // leave the model unblocked: the next Solve must return it again
				}
				vars := projections[rr.Intn(len(projections))]
				decided := s.decisionClause(vars) != nil
				ok := s.BlockModel(vars...)
				o.block(s.Model(), vars)
				if s.kept {
					resumed++
				} else if !decided {
					projected++
				}
				if !ok && o.lexLeast(nil) != nil {
					t.Fatalf("seed %d step %d: BlockModel reported a satisfiable formula refuted", seed, step)
				}
			case r < 16:
				cl := randomCNF(rr, n, 1)[0]
				ok := s.AddClause(cl...)
				o.clauses = append(o.clauses, cl)
				if !ok && o.lexLeast(nil) != nil {
					t.Fatalf("seed %d step %d: AddClause(%v) refuted a satisfiable formula", seed, step, cl)
				}
			case r < 18:
				// Round trip: everything exported is entailed, so importing
				// it back can change no answer.
				s.ImportLearnts(s.ExportLearnts(16, 16, 0))
			default:
				// Foreign junk is certified or dropped at the door.
				s.ImportLearnts(randomCNF(rr, n, 1+rr.Intn(4)))
			}
		}
	}
	if resumed == 0 || projected == 0 {
		t.Fatalf("blocking paths not both exercised: %d resumed, %d projection clauses", resumed, projected)
	}
	t.Logf("%d blocked models resumed, %d blocked by the projection clause", resumed, projected)
}

func containsVar(lits []Lit, v int) bool {
	for _, l := range lits {
		if l.Var() == v {
			return true
		}
	}
	return false
}

// seq returns lo, lo+1, …, hi.
func seq(lo, hi int) []int {
	var out []int
	for v := lo; v <= hi; v++ {
		out = append(out, v)
	}
	return out
}
