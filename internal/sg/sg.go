// Package sg implements the State Graph specification model of the paper
// (Section II): binary-encoded states, signal transitions, excitation /
// quiescent / constant-function regions, and the behavioural properties
// the Monotonous Cover theory is built on — conflicts, semi-modularity,
// distributivity, detonant states, unique entry, triggers, ordered and
// concurrent signals, persistency, and Complete State Coding.
//
// A state graph is a finite automaton G = <X, S, T, δ, s0> whose states
// carry consistent binary codes over the signal set X = XI ∪ XO.
package sg

import (
	"fmt"
	"sort"
	"strings"
)

// Dir is the direction of a signal transition.
type Dir int8

// Transition directions.
const (
	Plus  Dir = +1 // 0 → 1 ("+a")
	Minus Dir = -1 // 1 → 0 ("−a")
)

// String returns "+" or "-".
func (d Dir) String() string {
	if d == Plus {
		return "+"
	}
	return "-"
}

// Edge is one labelled state-graph arc: firing signal Signal in direction
// Dir moves to state To.
type Edge struct {
	Signal int
	Dir    Dir
	To     int
}

// State is one state of the graph. Code bit i is the value of signal i.
type State struct {
	Code uint64
	Succ []Edge
	Pred []Edge
}

// Graph is a state graph over at most 64 signals.
type Graph struct {
	Signals []string // signal names; index is the signal id
	Input   []bool   // Input[i] reports whether signal i is an input
	States  []State
	Initial int

	// Name is an optional label used in reports.
	Name string
}

// NumSignals returns |X|.
func (g *Graph) NumSignals() int { return len(g.Signals) }

// NumStates returns |S|.
func (g *Graph) NumStates() int { return len(g.States) }

// Value returns the value of signal sig in state s.
func (g *Graph) Value(s, sig int) bool { return g.States[s].Code>>uint(sig)&1 == 1 }

// Excited reports whether signal sig has an enabled transition in state s.
func (g *Graph) Excited(s, sig int) bool {
	for _, e := range g.States[s].Succ {
		if e.Signal == sig {
			return true
		}
	}
	return false
}

// ExcitedSet returns the bitmask of signals excited in state s.
func (g *Graph) ExcitedSet(s int) uint64 {
	var m uint64
	for _, e := range g.States[s].Succ {
		m |= 1 << uint(e.Signal)
	}
	return m
}

// ExcitedOutputs returns the bitmask of excited non-input signals in s.
func (g *Graph) ExcitedOutputs(s int) uint64 {
	var m uint64
	for _, e := range g.States[s].Succ {
		if !g.Input[e.Signal] {
			m |= 1 << uint(e.Signal)
		}
	}
	return m
}

// Successor returns the destination of firing signal sig in state s and
// whether such an edge exists.
func (g *Graph) Successor(s, sig int) (int, bool) {
	for _, e := range g.States[s].Succ {
		if e.Signal == sig {
			return e.To, true
		}
	}
	return 0, false
}

// SignalIndex returns the id of the named signal, or -1.
func (g *Graph) SignalIndex(name string) int {
	for i, n := range g.Signals {
		if n == name {
			return i
		}
	}
	return -1
}

// AddState appends a state with the given code and returns its index.
func (g *Graph) AddState(code uint64) int {
	g.States = append(g.States, State{Code: code})
	return len(g.States) - 1
}

// AddEdge inserts the edge from → to labelled with the transition of sig
// in direction d, updating both adjacency lists. It validates code
// consistency: exactly the bit of sig flips in direction d.
func (g *Graph) AddEdge(from, to, sig int, d Dir) error {
	cf, ct := g.States[from].Code, g.States[to].Code
	want := cf ^ 1<<uint(sig)
	if ct != want {
		return fmt.Errorf("sg: inconsistent edge %d→%d on %s%s: codes %0*b → %0*b",
			from, to, g.Signals[sig], d, len(g.Signals), cf, len(g.Signals), ct)
	}
	bit := cf>>uint(sig)&1 == 1
	if d == Plus && bit || d == Minus && !bit {
		return fmt.Errorf("sg: direction %s%s contradicts value %v in state %d",
			g.Signals[sig], d, bit, from)
	}
	g.States[from].Succ = append(g.States[from].Succ, Edge{Signal: sig, Dir: d, To: to})
	g.States[to].Pred = append(g.States[to].Pred, Edge{Signal: sig, Dir: d, To: from})
	return nil
}

// CheckConsistency verifies the consistent state assignment rules (every
// edge flips exactly its labelled signal in the labelled direction) and
// that all states are reachable from the initial state.
func (g *Graph) CheckConsistency() error {
	for si, st := range g.States {
		for _, e := range st.Succ {
			want := st.Code ^ 1<<uint(e.Signal)
			if g.States[e.To].Code != want {
				return fmt.Errorf("sg: edge %d→%d flips wrong bits", si, e.To)
			}
			bit := st.Code>>uint(e.Signal)&1 == 1
			if e.Dir == Plus && bit || e.Dir == Minus && !bit {
				return fmt.Errorf("sg: edge %d→%d labelled %s%s but signal is %v",
					si, e.To, g.Signals[e.Signal], e.Dir, bit)
			}
		}
	}
	// One allocation: the visited set, then a stack with room for every
	// state, since a state is pushed once, when first seen.
	n := len(g.States)
	w := (n + 63) / 64
	buf := make([]uint64, w+n)
	seen, stack := StateSet(buf[:w:w]), append(buf[w:w], uint64(g.Initial))
	seen.Add(g.Initial)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.States[s].Succ {
			if !seen.Has(e.To) {
				seen.Add(e.To)
				stack = append(stack, uint64(e.To))
			}
		}
	}
	for i := range n {
		if !seen.Has(i) {
			return fmt.Errorf("sg: state %d unreachable from initial state", i)
		}
	}
	return nil
}

// CodeString renders the code of state s with excitation asterisks, in the
// paper's pictorial style, e.g. "10 0*0*" without the space.
func (g *Graph) CodeString(s int) string {
	var b strings.Builder
	for i := range g.Signals {
		if g.Value(s, i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
		if g.Excited(s, i) {
			b.WriteByte('*')
		}
	}
	return b.String()
}

// StateByCodeString finds the state whose CodeString equals s (useful in
// tests referencing the paper's figures). Returns -1 when absent or
// ambiguous.
func (g *Graph) StateByCodeString(s string) int {
	found := -1
	for i := range g.States {
		if g.CodeString(i) == s {
			if found >= 0 {
				return -1
			}
			found = i
		}
	}
	return found
}

// Dump renders the graph as readable text, one state per line.
func (g *Graph) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "signals:")
	for i, n := range g.Signals {
		kind := "out"
		if g.Input[i] {
			kind = "in"
		}
		fmt.Fprintf(&b, " %s(%s)", n, kind)
	}
	fmt.Fprintf(&b, "\ninitial: %d\n", g.Initial)
	for i := range g.States {
		fmt.Fprintf(&b, "s%-3d %s :", i, g.CodeString(i))
		succ := append([]Edge(nil), g.States[i].Succ...)
		sort.Slice(succ, func(a, b int) bool { return succ[a].Signal < succ[b].Signal })
		for _, e := range succ {
			fmt.Fprintf(&b, " %s%s→s%d", g.Signals[e.Signal], e.Dir, e.To)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// DOT renders the graph in Graphviz dot syntax.
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph sg {\n  rankdir=TB;\n")
	for i := range g.States {
		shape := "ellipse"
		if i == g.Initial {
			shape = "doublecircle"
		}
		fmt.Fprintf(&b, "  s%d [label=\"%s\" shape=%s];\n", i, g.CodeString(i), shape)
	}
	for i, st := range g.States {
		for _, e := range st.Succ {
			fmt.Fprintf(&b, "  s%d -> s%d [label=\"%s%s\"];\n", i, e.To, g.Signals[e.Signal], e.Dir)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// Mirror returns a copy of the graph with the input/output role of every
// signal inverted. The mirror of a specification is its environment
// (Molnar's Foam Rubber Wrapper view), used by the verifier.
func (g *Graph) Mirror() *Graph {
	m := &Graph{
		Signals: append([]string(nil), g.Signals...),
		Input:   make([]bool, len(g.Input)),
		Initial: g.Initial,
		Name:    g.Name + "-mirror",
	}
	for i, in := range g.Input {
		m.Input[i] = !in
	}
	m.States = make([]State, len(g.States))
	for i, st := range g.States {
		m.States[i] = State{
			Code: st.Code,
			Succ: append([]Edge(nil), st.Succ...),
			Pred: append([]Edge(nil), st.Pred...),
		}
	}
	return m
}
