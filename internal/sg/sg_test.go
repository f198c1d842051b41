package sg_test

import (
	"strings"
	"testing"

	"repro/internal/benchdata"
	"repro/internal/sg"
)

func TestFig1Basics(t *testing.T) {
	g := benchdata.Fig1SG()
	if g.NumStates() != 14 {
		t.Fatalf("Fig1 has %d states, want 14", g.NumStates())
	}
	if g.NumSignals() != 4 {
		t.Fatalf("Fig1 has %d signals, want 4", g.NumSignals())
	}
	if err := g.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// The paper's pictorial codes must be reproduced exactly.
	for _, code := range []string{
		"0*0*00", "100*0*", "010*0", "1*010*", "100*1", "0010*", "1*0*11",
		"00*11", "0*110", "1110*", "1*111", "011*1", "01*01", "0001*",
	} {
		if g.StateByCodeString(code) < 0 {
			t.Errorf("state %q not found", code)
		}
	}
	if g.StateByCodeString("0*0*00") != g.Initial {
		t.Error("initial state should be 0*0*00")
	}
}

func TestFig1ConflictStructure(t *testing.T) {
	g := benchdata.Fig1SG()
	confl := g.Conflicts()
	if len(confl) == 0 {
		t.Fatal("Fig1 has an input conflict at the initial state")
	}
	for _, c := range confl {
		if c.Internal {
			t.Errorf("unexpected internal conflict: %s", c.Describe(g))
		}
		if c.State != g.Initial {
			t.Errorf("conflict outside the initial state: %s", c.Describe(g))
		}
	}
	if g.SemiModular() {
		t.Error("Fig1 is not semi-modular (input conflict)")
	}
	if !g.OutputSemiModular() {
		t.Error("Fig1 must be output semi-modular")
	}
	if !g.OutputDistributive() {
		t.Error("Fig1 must be output distributive")
	}
	if len(g.Detonants(false)) != 0 {
		t.Error("Fig1 has no detonant states")
	}
}

func TestFig1Persistency(t *testing.T) {
	g := benchdata.Fig1SG()
	if g.Persistent() {
		t.Fatal("Fig1 is not persistent: +a1 is non-persistent to +d1")
	}
	viol := g.PersistencyViolations()
	d := g.SignalIndex("d")
	a := g.SignalIndex("a")
	found := false
	for _, v := range viol {
		if v.Region.Signal == d && v.Region.Dir == sg.Plus && v.Trigger == a {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected the (+d, trigger a) violation, got %v", viol)
	}
}

func TestFig1Regions(t *testing.T) {
	g := benchdata.Fig1SG()
	d := g.SignalIndex("d")
	regs := g.RegionsOf(d)

	var erPlus []*sg.Region
	for _, er := range regs.ER {
		if er.Dir == sg.Plus {
			erPlus = append(erPlus, er)
		}
	}
	if len(erPlus) != 2 {
		t.Fatalf("ER(+d) should split into 2 regions, got %d", len(erPlus))
	}
	// The large region is {100*0*, 1*010*, 0010*}; its unique minimal
	// state is 100*0* (Lemma 2's u_min).
	var big *sg.Region
	for _, er := range erPlus {
		if len(er.States) == 3 {
			big = er
		}
	}
	if big == nil {
		t.Fatal("no 3-state ER(+d) region")
	}
	if !big.UniqueEntry() {
		t.Fatal("ER(+d,1) must have a unique entry")
	}
	if got, want := big.MinState(), g.StateByCodeString("100*0*"); got != want {
		t.Fatalf("u_min(+d1) = s%d, want s%d (100*0*)", got, want)
	}
	// Its only trigger is a+ (Lemma 2).
	trigs := g.Triggers(big)
	a := g.SignalIndex("a")
	for _, tr := range trigs {
		if tr.Signal != a || tr.Dir != sg.Plus {
			t.Fatalf("unexpected trigger %v", tr)
		}
	}
	if len(trigs) == 0 {
		t.Fatal("ER(+d,1) must have the a+ trigger")
	}
	// a and c are concurrent with +d1 (a- and c+ fire inside the
	// region); only b is ordered — which is why a single cover cube for
	// ER(+d,1) is impossible (Example 1).
	if !g.Concurrent(big, a) {
		t.Error("a must be concurrent with ER(+d,1)")
	}
	if !g.Ordered(big, g.SignalIndex("b")) {
		t.Error("b must be ordered with ER(+d,1)")
	}
	if !g.Concurrent(big, g.SignalIndex("c")) {
		t.Error("c must be concurrent with ER(+d,1)")
	}

	// ER(-d) is the singleton {0001*}.
	var erMinus []*sg.Region
	for _, er := range regs.ER {
		if er.Dir == sg.Minus {
			erMinus = append(erMinus, er)
		}
	}
	if len(erMinus) != 1 || len(erMinus[0].States) != 1 {
		t.Fatalf("ER(-d) should be one singleton region, got %v", erMinus)
	}
	if erMinus[0].States[0] != g.StateByCodeString("0001*") {
		t.Error("ER(-d) should be {0001*}")
	}
}

func TestFig1QRAfter(t *testing.T) {
	g := benchdata.Fig1SG()
	d := g.SignalIndex("d")
	regs := g.RegionsOf(d)
	for i, er := range regs.ER {
		j := regs.QRAfter[i]
		if j < 0 {
			t.Fatalf("%s has no following QR", g.ERLabel(er))
		}
		qr := regs.QR[j]
		if qr.Dir != er.Dir {
			t.Fatalf("QR direction mismatch for %s", g.ERLabel(er))
		}
		// CFR = ER ∪ QR and the two parts are disjoint.
		cfr := regs.CFR(i)
		if cfr.Count() != len(er.States)+len(qr.States) {
			t.Fatalf("CFR size %d != |ER|+|QR| = %d", cfr.Count(), len(er.States)+len(qr.States))
		}
	}
}

func TestFig1CSC(t *testing.T) {
	g := benchdata.Fig1SG()
	if !g.USC() {
		t.Error("Fig1 state codes are all distinct")
	}
	if !g.CSC() {
		t.Error("Fig1 satisfies CSC")
	}
}

func TestFig4Basics(t *testing.T) {
	g := benchdata.Fig4SG()
	if g.NumStates() != 15 {
		t.Fatalf("Fig4 has %d states, want 15", g.NumStates())
	}
	if err := g.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if !g.SemiModular() {
		for _, c := range g.Conflicts() {
			t.Log(c.Describe(g))
		}
		t.Fatal("Fig4 must be fully semi-modular")
	}
	// Persistent: the paper stresses this SG is persistent yet violates MC.
	if !g.Persistent() {
		t.Fatal("Fig4 must be persistent")
	}
	if g.USC() {
		t.Error("Fig4 has two states with code 1100, USC must fail")
	}
	if !g.CSC() {
		t.Error("Fig4 satisfies CSC (equal excited non-input sets)")
	}
}

func TestFig4ERbRegions(t *testing.T) {
	g := benchdata.Fig4SG()
	b := g.SignalIndex("b")
	regs := g.RegionsOf(b)
	var plus []*sg.Region
	for _, er := range regs.ER {
		if er.Dir == sg.Plus {
			plus = append(plus, er)
		}
	}
	if len(plus) != 2 {
		t.Fatalf("ER(+b) should have 2 regions, got %d", len(plus))
	}
	sizes := map[int]bool{}
	for _, er := range plus {
		sizes[len(er.States)] = true
		if !er.UniqueEntry() {
			t.Errorf("%s must have unique entry", g.ERLabel(er))
		}
	}
	if !sizes[3] || !sizes[2] {
		t.Fatalf("ER(+b) regions should have sizes 3 and 2")
	}
}

func TestMirrorSwapsRoles(t *testing.T) {
	g := benchdata.Fig1SG()
	m := g.Mirror()
	for i := range g.Signals {
		if m.Input[i] == g.Input[i] {
			t.Fatalf("signal %s role not mirrored", g.Signals[i])
		}
	}
	if m.NumStates() != g.NumStates() {
		t.Fatal("mirror must preserve the state set")
	}
	// Mutating the mirror must not affect the original.
	m.States[0].Succ = nil
	if len(g.States[0].Succ) == 0 {
		t.Fatal("mirror shares successor slices with the original")
	}
}

func TestAddEdgeRejectsInconsistency(t *testing.T) {
	g := &sg.Graph{Signals: []string{"a", "b"}, Input: []bool{true, false}}
	s0 := g.AddState(0b00)
	s1 := g.AddState(0b11)
	if err := g.AddEdge(s0, s1, 0, sg.Plus); err == nil {
		t.Fatal("edge flipping two bits must be rejected")
	}
	s2 := g.AddState(0b01)
	if err := g.AddEdge(s0, s2, 0, sg.Minus); err == nil {
		t.Fatal("direction contradicting the code must be rejected")
	}
	if err := g.AddEdge(s0, s2, 0, sg.Plus); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
}

func TestCheckConsistencyUnreachable(t *testing.T) {
	g := &sg.Graph{Signals: []string{"a"}, Input: []bool{true}}
	g.AddState(0)
	g.AddState(1)
	if err := g.CheckConsistency(); err == nil {
		t.Fatal("unreachable state must be reported")
	}
}

func TestDetonantDetection(t *testing.T) {
	// Concurrent diamond: w → u (a+), w → v (b+) with a+ and b+
	// concurrent, and c becomes excited in both u and v while stable in
	// w: w is detonant with respect to c (OR-causality).
	g := &sg.Graph{Signals: []string{"a", "b", "c"}, Input: []bool{true, true, false}}
	w := g.AddState(0b000)
	u := g.AddState(0b001)  // a=1
	v := g.AddState(0b010)  // b=1
	z := g.AddState(0b011)  // a=1, b=1
	uc := g.AddState(0b101) // a=1, c=1
	vc := g.AddState(0b110) // b=1, c=1
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddEdge(w, u, 0, sg.Plus))
	must(g.AddEdge(w, v, 1, sg.Plus))
	must(g.AddEdge(u, z, 1, sg.Plus))
	must(g.AddEdge(v, z, 0, sg.Plus))
	must(g.AddEdge(u, uc, 2, sg.Plus))
	must(g.AddEdge(v, vc, 2, sg.Plus))
	det := g.Detonants(true)
	if len(det) != 1 || det[0].State != w || g.Signals[det[0].Signal] != "c" {
		t.Fatalf("detonant detection failed: %v", det)
	}
	if g.Distributive() {
		t.Error("graph with detonant state cannot be distributive")
	}
	// The property report counts every detonant, but only a non-input
	// one breaks output distributivity.
	if rep := g.Check(); rep.Detonants != 1 || rep.OutputDistrib {
		t.Errorf("report: %d detonants, output distributive %v; want 1, false", rep.Detonants, rep.OutputDistrib)
	}
	g.Input[2] = true
	if rep := g.Check(); rep.Detonants != 1 || !rep.OutputDistrib {
		t.Errorf("input c: %d detonants, output distributive %v; want 1, true", rep.Detonants, rep.OutputDistrib)
	}
}

func TestInternalConflictDetection(t *testing.T) {
	// Output c excited in w, disabled by input a firing.
	g := &sg.Graph{Signals: []string{"a", "c"}, Input: []bool{true, false}}
	w := g.AddState(0b00)
	u := g.AddState(0b01) // a fired
	x := g.AddState(0b10) // c fired
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddEdge(w, u, 0, sg.Plus)) // a+ disables c
	must(g.AddEdge(w, x, 1, sg.Plus))
	ics := g.InternalConflicts()
	if len(ics) != 1 {
		t.Fatalf("want 1 internal conflict, got %v", ics)
	}
	if g.OutputSemiModular() {
		t.Error("graph must not be output semi-modular")
	}
	if got := ics[0].Describe(g); !strings.Contains(got, "internal conflict") {
		t.Errorf("Describe = %q", got)
	}
}

func TestCSCViolationDetection(t *testing.T) {
	// Cycle a+; c+; a-; a+; c-; a-: states (a=1,c=1) and (a=1,c=0) each
	// occur twice with different excited output sets → CSC violations.
	g := &sg.Graph{Signals: []string{"a", "c"}, Input: []bool{true, false}}
	s0 := g.AddState(0b00)
	s1 := g.AddState(0b01) // a=1, c excited
	s2 := g.AddState(0b11) // a- excited
	s3 := g.AddState(0b10) // a+ excited
	s4 := g.AddState(0b11) // c- excited (code clash with s2)
	s5 := g.AddState(0b01) // a- excited (code clash with s1)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddEdge(s0, s1, 0, sg.Plus))
	must(g.AddEdge(s1, s2, 1, sg.Plus))
	must(g.AddEdge(s2, s3, 0, sg.Minus))
	must(g.AddEdge(s3, s4, 0, sg.Plus))
	must(g.AddEdge(s4, s5, 1, sg.Minus))
	must(g.AddEdge(s5, s0, 0, sg.Minus))
	if err := g.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	viol := g.CSCViolations()
	if len(viol) != 2 {
		t.Fatalf("want 2 CSC violations, got %v", viol)
	}
	if g.CSC() {
		t.Error("CSC must fail")
	}
	if g.USC() {
		t.Error("USC must fail")
	}
}

func TestPropertyReportString(t *testing.T) {
	g := benchdata.Fig1SG()
	rep := g.Check()
	s := rep.String()
	for _, want := range []string{"states: 14", "output semi-modular: yes", "persistent: no"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
	if rep.UniqueEntryOK != true {
		t.Error("all Fig1 output ERs have unique entries")
	}
}

func TestDumpAndDOT(t *testing.T) {
	g := benchdata.Fig1SG()
	d := g.Dump()
	if !strings.Contains(d, "0*0*00") || !strings.Contains(d, "a(in)") {
		t.Errorf("Dump missing content:\n%s", d)
	}
	dot := g.DOT()
	if !strings.Contains(dot, "digraph sg") || !strings.Contains(dot, "->") {
		t.Error("DOT output malformed")
	}
}
