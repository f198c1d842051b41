package verify

import (
	"fmt"

	"repro/internal/netlist"
	"repro/internal/sg"
)

// This file retains the seed revision's exploration engine as a
// differential-testing oracle for the levelized, cone-limited engine in
// verify.go (see diff_test.go): string-keyed seen/parent maps, a fresh
// value slice per fire, and the recursive steady-state evaluator of
// settle.go.

// CheckLimitRef is CheckLimit on the reference engine. It lives in a
// test file, so only test builds carry it; it is exported for the
// external differential tests (and for bisecting any future verifier
// regression).
func CheckLimitRef(nl *netlist.Netlist, spec *sg.Graph, limit int) *Result {
	res := &Result{}
	nNets := nl.NumNets()
	ix := sg.NewIndex(spec)

	values := initialValues(nl, spec, res)
	if values == nil {
		return res
	}

	type stateKey string
	// key packs the net values into a dense bitset followed by the spec
	// state — 8× smaller than a byte-per-net rendering and built without
	// formatting, which matters at millions of composed states.
	keyLen := (nNets+7)/8 + 4
	key := func(vals []bool, spec int) stateKey {
		b := make([]byte, keyLen)
		for i, v := range vals {
			if v {
				b[i>>3] |= 1 << uint(i&7)
			}
		}
		off := keyLen - 4
		b[off] = byte(spec)
		b[off+1] = byte(spec >> 8)
		b[off+2] = byte(spec >> 16)
		b[off+3] = byte(spec >> 24)
		return stateKey(b)
	}

	// enabled lists the transitions firable in a composed state.
	enabled := func(vals []bool, specState int) []transition {
		var out []transition
		for _, e := range spec.States[specState].Succ {
			if spec.Input[e.Signal] {
				out = append(out, transition{isInput: true, signal: e.Signal})
			}
		}
		for gi := range nl.Gates {
			if nl.Eval(vals, gi) != vals[nl.Gates[gi].Out] {
				out = append(out, transition{gate: gi})
			}
		}
		return out
	}

	// fire applies a transition; ok=false when it is an unexpected
	// output (conformance failure), in which case the state is dropped.
	fire := func(vals []bool, specState int, t transition) (nv []bool, ns int, ok bool) {
		nv = append([]bool(nil), vals...)
		ns = specState
		if t.isInput {
			nv[nl.SignalNet[t.signal]] = !nv[nl.SignalNet[t.signal]]
			to, found := ix.Successor(specState, t.signal)
			if !found {
				panic("verify: input fired without spec edge")
			}
			ns = to
			return nv, ns, true
		}
		g := nl.Gates[t.gate]
		nv[g.Out] = !nv[g.Out]
		if sig := nl.Nets[g.Out].Signal; sig >= 0 {
			to, found := ix.Successor(specState, sig)
			if !found {
				if len(res.Unexpected) < maxWitnesses {
					res.Unexpected = append(res.Unexpected, Unexpected{Signal: sig, State: render(nl, vals, specState)})
				}
				return nil, 0, false
			}
			ns = to
		}
		return nv, ns, true
	}

	type node struct {
		vals      []bool
		specState int
		key       stateKey
	}
	type arrival struct {
		prev stateKey
		via  string
	}
	seen := map[stateKey]bool{}
	parent := map[stateKey]arrival{}
	startKey := key(values, spec.Initial)
	var queue []node
	start := node{vals: values, specState: spec.Initial, key: startKey}
	seen[startKey] = true
	queue = append(queue, start)
	res.States = 1

	// traceTo reconstructs the transition sequence to a state, eliding
	// the middle of very long paths.
	traceTo := func(k stateKey) []string {
		var rev []string
		for k != startKey {
			a, ok := parent[k]
			if !ok {
				break
			}
			rev = append(rev, a.via)
			k = a.prev
		}
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		return elideTrace(rev)
	}

	for len(queue) > 0 {
		cur := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		trans := enabled(cur.vals, cur.specState)
		if len(trans) == 0 && len(res.Deadlocks) < maxWitnesses {
			// The specification always has successors (cyclic specs);
			// a composed state with nothing enabled means the circuit
			// wedged (e.g. an output the logic can never produce).
			res.Deadlocks = append(res.Deadlocks, render(nl, cur.vals, cur.specState))
		}

		// RS drive conflicts: the set and reset FUNCTIONS both evaluate
		// to 1 over the settled signal values. Transient overlaps where
		// one side is a stale net still excited to fall are inherent to
		// the architecture and benign for the primitive latch; a
		// functional overlap means the covers are not disjoint — a real
		// drive fight.
		for gi, g := range nl.Gates {
			if g.Kind != netlist.RSLatch {
				continue
			}
			s := funcVal(nl, cur.vals, g.Pins[0], map[int]bool{})
			r := funcVal(nl, cur.vals, g.Pins[1], map[int]bool{})
			if s && r && len(res.RSConflict) < maxWitnesses {
				res.RSConflict = append(res.RSConflict,
					fmt.Sprintf("%s in state %s", nl.Gates[gi].Name, render(nl, cur.vals, cur.specState)))
			}
		}

		for _, t := range trans {
			nv, ns, ok := fire(cur.vals, cur.specState, t)
			if !ok {
				continue
			}
			// Semi-modularity of gates: every gate excited before the
			// move (other than the mover) must stay excited after it.
			for _, u := range trans {
				if u.isInput || (!t.isInput && u.gate == t.gate) {
					continue
				}
				if nl.Eval(nv, u.gate) == nv[nl.Gates[u.gate].Out] {
					if len(res.Hazards) < maxWitnesses {
						res.Hazards = append(res.Hazards, Hazard{
							Gate:     u.gate,
							GateName: nl.Gates[u.gate].Name,
							By:       t.describe(nl),
							State:    render(nl, cur.vals, cur.specState),
							Trace:    traceTo(cur.key),
						})
					}
				}
			}
			k := key(nv, ns)
			if !seen[k] {
				if res.States >= limit {
					res.Truncated = true
					return res
				}
				seen[k] = true
				parent[k] = arrival{prev: cur.key, via: t.describe(nl)}
				res.States++
				queue = append(queue, node{vals: nv, specState: ns, key: k})
			}
		}
	}
	return res
}
