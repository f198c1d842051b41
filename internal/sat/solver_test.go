package sat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// newVars allocates n variables and returns the solver.
func newVars(n int) *Solver {
	s := New()
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	return s
}

func TestTrivialSat(t *testing.T) {
	s := newVars(2)
	s.AddClause(1, 2)
	if !s.Solve() {
		t.Fatal("x ∨ y should be SAT")
	}
	if !s.Value(1) && !s.Value(2) {
		t.Fatal("model does not satisfy the clause")
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := newVars(1)
	s.AddClause(1)
	if !s.AddClause(-1) {
		return // detected at add time — fine
	}
	if s.Solve() {
		t.Fatal("x ∧ ¬x should be UNSAT")
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := newVars(1)
	if s.AddClause() {
		t.Fatal("empty clause should return false")
	}
	if s.Solve() {
		t.Fatal("formula with empty clause is UNSAT")
	}
}

func TestTautologyClauseIgnored(t *testing.T) {
	s := newVars(2)
	s.AddClause(1, -1)
	s.AddClause(2)
	if !s.Solve() {
		t.Fatal("tautology must not constrain")
	}
	if !s.Value(2) {
		t.Fatal("unit clause ignored")
	}
}

func TestUnitChain(t *testing.T) {
	// x1, x1→x2, x2→x3, ..., x9→x10: all forced true.
	s := newVars(10)
	s.AddClause(1)
	for v := 1; v < 10; v++ {
		s.AddClause(Lit(-v), Lit(v+1))
	}
	if !s.Solve() {
		t.Fatal("chain should be SAT")
	}
	for v := 1; v <= 10; v++ {
		if !s.Value(v) {
			t.Fatalf("x%d should be true", v)
		}
	}
}

func TestXorChainSat(t *testing.T) {
	// (x1 ⊕ x2) ∧ (x2 ⊕ x3) — SAT with alternating values.
	s := newVars(3)
	s.AddClause(1, 2)
	s.AddClause(-1, -2)
	s.AddClause(2, 3)
	s.AddClause(-2, -3)
	if !s.Solve() {
		t.Fatal("xor chain should be SAT")
	}
	if s.Value(1) == s.Value(2) || s.Value(2) == s.Value(3) {
		t.Fatal("model violates xor constraints")
	}
}

func TestPigeonhole32Unsat(t *testing.T) {
	// 3 pigeons into 2 holes: var p*2+h+1 means pigeon p sits in hole h.
	s := newVars(6)
	vr := func(p, h int) Lit { return Lit(p*2 + h + 1) }
	for p := 0; p < 3; p++ {
		s.AddClause(vr(p, 0), vr(p, 1))
	}
	for h := 0; h < 2; h++ {
		for p1 := 0; p1 < 3; p1++ {
			for p2 := p1 + 1; p2 < 3; p2++ {
				s.AddClause(-vr(p1, h), -vr(p2, h))
			}
		}
	}
	if s.Solve() {
		t.Fatal("PHP(3,2) must be UNSAT")
	}
}

func TestPigeonhole54Unsat(t *testing.T) {
	const P, H = 5, 4
	s := newVars(P * H)
	vr := func(p, h int) Lit { return Lit(p*H + h + 1) }
	for p := 0; p < P; p++ {
		lits := make([]Lit, H)
		for h := 0; h < H; h++ {
			lits[h] = vr(p, h)
		}
		s.AddClause(lits...)
	}
	for h := 0; h < H; h++ {
		for p1 := 0; p1 < P; p1++ {
			for p2 := p1 + 1; p2 < P; p2++ {
				s.AddClause(-vr(p1, h), -vr(p2, h))
			}
		}
	}
	if s.Solve() {
		t.Fatal("PHP(5,4) must be UNSAT")
	}
}

func TestAssumptions(t *testing.T) {
	s := newVars(3)
	s.AddClause(-1, 2) // x1 → x2
	s.AddClause(-2, 3) // x2 → x3
	if !s.Solve(1) {
		t.Fatal("SAT under assumption x1")
	}
	if !s.Value(1) || !s.Value(2) || !s.Value(3) {
		t.Fatal("implications not propagated under assumption")
	}
	s.AddClause(-3) // now x3 is false
	if s.Solve(1) {
		t.Fatal("UNSAT under assumption x1 after ¬x3")
	}
	if !s.Solve(-1) {
		t.Fatal("still SAT with ¬x1")
	}
	if s.Value(1) {
		t.Fatal("assumption ¬x1 not honoured")
	}
}

func TestResolveAfterUnsatAssumption(t *testing.T) {
	s := newVars(2)
	s.AddClause(1, 2)
	s.AddClause(-1, 2)
	if s.Solve(-2) {
		t.Fatal("¬y forces a contradiction")
	}
	if !s.Solve() {
		t.Fatal("formula is SAT without assumptions")
	}
	if !s.Value(2) {
		t.Fatal("y must be true")
	}
}

func TestModelEnumeration(t *testing.T) {
	// x ∨ y has exactly 3 models over {x,y}.
	s := newVars(2)
	s.AddClause(1, 2)
	count := 0
	for s.Solve() {
		count++
		if count > 3 {
			t.Fatal("more than 3 models enumerated")
		}
		if !s.BlockModel() {
			break
		}
	}
	if count != 3 {
		t.Fatalf("enumerated %d models, want 3", count)
	}
}

func TestBlockModelRestricted(t *testing.T) {
	// Enumerate over x only: two blocked models exhaust the space.
	s := newVars(2)
	s.AddClause(1, 2)
	count := 0
	for s.Solve() {
		count++
		if count > 2 {
			t.Fatal("restricted enumeration did not terminate")
		}
		if !s.BlockModel(1) {
			break
		}
	}
	if count != 2 {
		t.Fatalf("enumerated %d x-projections, want 2", count)
	}
}

// bruteForce decides satisfiability of a CNF over n vars by enumeration.
func bruteForce(n int, cnf [][]Lit) bool {
	for m := 0; m < 1<<uint(n); m++ {
		ok := true
		for _, cl := range cnf {
			sat := false
			for _, l := range cl {
				v := m>>uint(l.Var()-1)&1 == 1
				if v == l.Sign() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestQuickRandom3SATAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 3 + rr.Intn(8)
		m := 1 + rr.Intn(4*n)
		cnf := make([][]Lit, m)
		s := newVars(n)
		okAdd := true
		for i := range cnf {
			k := 1 + rr.Intn(3)
			cl := make([]Lit, 0, k)
			for j := 0; j < k; j++ {
				v := 1 + rr.Intn(n)
				if rr.Intn(2) == 0 {
					cl = append(cl, Lit(v))
				} else {
					cl = append(cl, Lit(-v))
				}
			}
			cnf[i] = cl
			if !s.AddClause(cl...) {
				okAdd = false
			}
		}
		want := bruteForce(n, cnf)
		got := okAdd && s.Solve()
		if got != want {
			return false
		}
		if got {
			// Verify the model actually satisfies the formula.
			for _, cl := range cnf {
				sat := false
				for _, l := range cl {
					if s.Value(l.Var()) == l.Sign() {
						sat = true
						break
					}
				}
				if !sat {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickModelCountMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 2 + rr.Intn(5)
		m := 1 + rr.Intn(3*n)
		cnf := make([][]Lit, m)
		s := newVars(n)
		okAdd := true
		for i := range cnf {
			k := 1 + rr.Intn(3)
			cl := make([]Lit, 0, k)
			for j := 0; j < k; j++ {
				v := 1 + rr.Intn(n)
				if rr.Intn(2) == 0 {
					cl = append(cl, Lit(v))
				} else {
					cl = append(cl, Lit(-v))
				}
			}
			cnf[i] = cl
			if !s.AddClause(cl...) {
				okAdd = false
			}
		}
		want := 0
		for mv := 0; mv < 1<<uint(n); mv++ {
			ok := true
			for _, cl := range cnf {
				sat := false
				for _, l := range cl {
					if (mv>>uint(l.Var()-1)&1 == 1) == l.Sign() {
						sat = true
						break
					}
				}
				if !sat {
					ok = false
					break
				}
			}
			if ok {
				want++
			}
		}
		got := 0
		if okAdd {
			for s.Solve() {
				got++
				if got > 1<<uint(n) {
					return false
				}
				if !s.BlockModel() {
					break
				}
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestLitHelpers(t *testing.T) {
	l := Lit(5)
	if l.Var() != 5 || !l.Sign() || l.Neg() != Lit(-5) {
		t.Fatal("positive literal helpers broken")
	}
	n := Lit(-7)
	if n.Var() != 7 || n.Sign() || n.Neg() != Lit(7) {
		t.Fatal("negative literal helpers broken")
	}
}

func TestStatisticsAdvance(t *testing.T) {
	s := newVars(20)
	for v := 1; v < 20; v += 2 {
		s.AddClause(Lit(v), Lit(v+1))
		s.AddClause(Lit(-v), Lit(-(v + 1)))
	}
	if !s.Solve() {
		t.Fatal("xor pairs are SAT")
	}
	if s.Decisions == 0 {
		t.Fatal("expected at least one decision")
	}
	if s.Propagations == 0 {
		t.Fatal("expected propagations")
	}
}

// randomCNF builds a reproducible random CNF over n variables.
func randomCNF(rr *rand.Rand, n, m int) [][]Lit {
	cnf := make([][]Lit, m)
	for i := range cnf {
		k := 1 + rr.Intn(3)
		cl := make([]Lit, 0, k)
		for j := 0; j < k; j++ {
			v := 1 + rr.Intn(n)
			if rr.Intn(2) == 0 {
				cl = append(cl, Lit(v))
			} else {
				cl = append(cl, Lit(-v))
			}
		}
		cnf[i] = cl
	}
	return cnf
}

func addAll(s *Solver, n int, cnf [][]Lit) bool {
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	ok := true
	for _, cl := range cnf {
		if !s.AddClause(cl...) {
			ok = false
		}
	}
	return ok
}

// lexLeastModel finds the lexicographically least satisfying assignment
// by brute force (variable 1 most significant, false < true), or nil.
func lexLeastModel(n int, cnf [][]Lit) []bool {
	for m := 0; m < 1<<uint(n); m++ {
		model := make([]bool, n)
		for v := 1; v <= n; v++ {
			model[v-1] = m>>uint(n-v)&1 == 1
		}
		ok := true
		for _, cl := range cnf {
			sat := false
			for _, l := range cl {
				if model[l.Var()-1] == l.Sign() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return model
		}
	}
	return nil
}

func modelsEqual(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The canonical configuration's keystone property: the first model is
// the lexicographically least one, whatever the solver has learned.
func TestCanonicalLexLeastModel(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 2 + rr.Intn(7)
		cnf := randomCNF(rr, n, 1+rr.Intn(3*n))
		want := lexLeastModel(n, cnf)
		s := NewWith(Config{Canonical: true})
		okAdd := addAll(s, n, cnf)
		if want == nil {
			return !(okAdd && s.Solve())
		}
		if !okAdd || !s.Solve() {
			return false
		}
		return modelsEqual(s.Model(), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Canonical enumeration yields models in strictly increasing
// lexicographic order, and the sequence is invariant to learnt-clause
// imports from another solver.
func TestCanonicalEnumerationInvariantToImports(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 2 + rr.Intn(6)
		cnf := randomCNF(rr, n, 1+rr.Intn(3*n))

		enumerate := func(s *Solver, okAdd bool) [][]bool {
			var out [][]bool
			if !okAdd {
				return out
			}
			for s.Solve() {
				out = append(out, s.Model())
				if len(out) > 1<<uint(n) {
					return nil
				}
				if !s.BlockModel() {
					break
				}
			}
			return out
		}

		plain := NewWith(Config{Canonical: true})
		ref := enumerate(plain, addAll(plain, n, cnf))

		// A donor solver with the default (VSIDS) heuristics works the
		// same formula and donates everything it learned.
		donor := New()
		donorOK := addAll(donor, n, cnf)
		donor.Solve()
		fed := NewWith(Config{Canonical: true})
		fedOK := addAll(fed, n, cnf)
		if donorOK && fedOK {
			fed.ImportLearnts(donor.ExportLearnts(16, 16, 0))
		}
		got := enumerate(fed, fedOK)

		if len(ref) != len(got) {
			return false
		}
		for i := range ref {
			if !modelsEqual(ref[i], got[i]) {
				return false
			}
		}
		// Strictly increasing lexicographic order.
		for i := 1; i < len(ref); i++ {
			less := false
			for v := 0; v < n; v++ {
				if ref[i-1][v] != ref[i][v] {
					less = !ref[i-1][v]
					break
				}
			}
			if !less {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 3 + rr.Intn(7)
		cnf := randomCNF(rr, n, 2+rr.Intn(3*n))

		a := New()
		aOK := addAll(a, n, cnf)
		aSat := aOK && a.Solve()

		b := New()
		bOK := addAll(b, n, cnf)
		if aOK && bOK {
			exported := a.ExportLearnts(16, 16, 0)
			kept, dropped := b.ImportLearnts(exported)
			// Same formula: everything a learned is entailed in b, so
			// nothing may be dropped for failing certification (drops
			// can only come from level-0-satisfied candidates).
			if kept+dropped != len(exported) {
				return false
			}
		}
		bSat := bOK && b.Solve()
		return aSat == bSat
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Importing arbitrary junk must never flip a verdict or perturb the
// canonical model: uncertifiable clauses are dropped at the door.
func TestImportJunkNeverFlips(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 2 + rr.Intn(6)
		cnf := randomCNF(rr, n, 1+rr.Intn(3*n))
		junk := randomCNF(rr, n+2, 1+rr.Intn(8)) // vars may be out of range

		ref := NewWith(Config{Canonical: true})
		refOK := addAll(ref, n, cnf)
		refSat := refOK && ref.Solve()

		s := NewWith(Config{Canonical: true})
		sOK := addAll(s, n, cnf)
		if sOK {
			s.ImportLearnts(junk)
		}
		sSat := sOK && s.Solve()
		if refSat != sSat {
			return false
		}
		if refSat && !modelsEqual(ref.Model(), s.Model()) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
