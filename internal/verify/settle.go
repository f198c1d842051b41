package verify

import (
	"fmt"
	"strings"

	"repro/internal/netlist"
	"repro/internal/sg"
)

// The helpers both engines share: the recursive steady-state evaluator,
// the power-up settle, and witness rendering. The engine in verify.go
// falls back on funcVal/netVal for netlists with combinational cycles,
// which its levelized sweep cannot order; the reference engine in
// reference_test.go uses them throughout.

// funcVal evaluates the steady-state value a pin would settle to if the
// combinational network were given time: latch outputs and primary
// inputs keep their current values, AND/OR gates are recomputed
// recursively. visiting guards against (malformed) combinational cycles.
func funcVal(nl *netlist.Netlist, vals []bool, p netlist.Pin, visiting map[int]bool) bool {
	v := netVal(nl, vals, p.Net, visiting)
	if p.Invert {
		return !v
	}
	return v
}

func netVal(nl *netlist.Netlist, vals []bool, net int, visiting map[int]bool) bool {
	d := nl.Nets[net].Driver
	if d < 0 || visiting[net] {
		return vals[net]
	}
	g := nl.Gates[d]
	if !g.Kind.Combinational() {
		return vals[net]
	}
	visiting[net] = true
	defer delete(visiting, net)
	switch g.Kind {
	case netlist.And:
		for _, p := range g.Pins {
			if !funcVal(nl, vals, p, visiting) {
				return false
			}
		}
		return true
	case netlist.Or:
		for _, p := range g.Pins {
			if funcVal(nl, vals, p, visiting) {
				return true
			}
		}
		return false
	default:
		return vals[net]
	}
}

// render formats a composed state for witness reports.
func render(nl *netlist.Netlist, vals []bool, specState int) string {
	var b strings.Builder
	for i, v := range vals {
		if i > 0 {
			b.WriteByte(' ')
		}
		val := "0"
		if v {
			val = "1"
		}
		fmt.Fprintf(&b, "%s=%s", nl.Nets[i].Name, val)
	}
	fmt.Fprintf(&b, " @spec s%d", specState)
	return b.String()
}

// elideTrace shortens very long witness paths in the middle.
func elideTrace(rev []string) []string {
	if len(rev) > 24 {
		head := append([]string(nil), rev[:8]...)
		head = append(head, fmt.Sprintf("… (%d steps) …", len(rev)-16))
		rev = append(head, rev[len(rev)-8:]...)
	}
	return rev
}

// initialValues computes the power-up net values: primary signal nets
// from the spec's initial code, combinational nets settled to their
// stable values. It returns nil (after recording the witness) when the
// settle loop detects a combinational cycle.
func initialValues(nl *netlist.Netlist, spec *sg.Graph, res *Result) []bool {
	values := make([]bool, nl.NumNets())
	for sig := range spec.Signals {
		values[nl.SignalNet[sig]] = spec.Value(spec.Initial, sig)
	}
	for ni, n := range nl.Nets {
		if n.ComplementOf >= 0 {
			values[ni] = !spec.Value(spec.Initial, n.ComplementOf)
		}
	}
	for iter := 0; ; iter++ {
		changed := false
		for gi, g := range nl.Gates {
			if !nl.SettleAtInit(gi) {
				continue // latch and signal-wire gates keep the code value
			}
			next := nl.Eval(values, gi)
			if values[g.Out] != next {
				values[g.Out] = next
				changed = true
			}
		}
		if !changed {
			break
		}
		if iter > nl.NumNets()+4 {
			res.Hazards = append(res.Hazards, Hazard{GateName: "(init)", By: "combinational cycle", State: "initial"})
			return nil
		}
	}
	return values
}
