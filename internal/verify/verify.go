// Package verify checks speed-independence of a gate-level circuit
// against its state-graph specification.
//
// The circuit is closed with its environment — the mirror of the
// specification (Molnar's Foam Rubber Wrapper view): the environment
// fires input transitions exactly when the specification allows them,
// and observes output transitions. Every gate output is a separate
// signal with unbounded pure delay (Section III of the paper). The
// composed reachable state space is explored exhaustively and the
// verifier reports:
//
//   - semi-modularity violations of internal and output gates (an
//     excited gate gets disabled before firing) — these are exactly the
//     potential hazards under the pure/unbounded gate delay model;
//   - conformance violations (the circuit produces an output transition
//     the specification does not allow);
//   - RS latch drive conflicts (S and R active simultaneously).
//
// The exploration engine is allocation-lean: composed states live
// packed in a grow-only arena behind an open-addressing hash table
// (keyed by the binary net-value/spec-state words), per-state excited
// gate sets are tracked as bitmasks and updated by re-evaluating only
// the fan-out cone of the single net a transition flips, and the
// steady-state functions of RS latches are read off one levelized
// sweep per state instead of a recursive probe per latch pin. The seed
// engine is retained in reference_test.go as the differential oracle.
package verify

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/sg"
)

// DefaultStateLimit bounds composed-state exploration.
const DefaultStateLimit = 1 << 22

// maxWitnesses bounds how many violations of each kind are collected.
const maxWitnesses = 16

// Hazard is a semi-modularity violation of a gate: in state State, gate
// Gate was excited, and firing By disabled it.
type Hazard struct {
	Gate     int    // index into the netlist's gate list
	GateName string // human-readable gate name
	By       string // description of the disabling transition
	State    string // rendering of the composed state
	// Trace is the transition sequence from the initial state to State
	// (possibly elided in the middle for very long paths).
	Trace []string
}

// Unexpected is a conformance violation: an output gate fired although
// the specification does not enable that output transition.
type Unexpected struct {
	Signal int
	State  string
}

// Result is the verification outcome.
type Result struct {
	States     int
	Hazards    []Hazard
	Unexpected []Unexpected
	RSConflict []string
	Deadlocks  []string // composed states with no enabled transition
	Truncated  bool     // state limit was hit
}

// OK reports whether the circuit verified hazard-free, conformant and
// deadlock-free.
func (r *Result) OK() bool {
	return len(r.Hazards) == 0 && len(r.Unexpected) == 0 && len(r.RSConflict) == 0 &&
		len(r.Deadlocks) == 0 && !r.Truncated
}

// String renders a short verdict.
func (r *Result) String() string {
	if r.OK() {
		return fmt.Sprintf("speed-independent: yes (%d composed states)", r.States)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "speed-independent: NO (%d composed states)\n", r.States)
	for _, h := range r.Hazards {
		fmt.Fprintf(&b, "  hazard: gate %s disabled by %s in state %s\n", h.GateName, h.By, h.State)
		if len(h.Trace) > 0 {
			fmt.Fprintf(&b, "    via: %s\n", strings.Join(h.Trace, " "))
		}
	}
	for _, u := range r.Unexpected {
		fmt.Fprintf(&b, "  unexpected output: signal %d in state %s\n", u.Signal, u.State)
	}
	for _, c := range r.RSConflict {
		fmt.Fprintf(&b, "  RS drive conflict: %s\n", c)
	}
	for _, d := range r.Deadlocks {
		fmt.Fprintf(&b, "  deadlock: %s\n", d)
	}
	if r.Truncated {
		b.WriteString("  state limit exceeded\n")
	}
	return b.String()
}

// transition is one enabled move of the composed system.
type transition struct {
	isInput bool
	signal  int // for inputs: specification signal
	gate    int // for gates: netlist gate index
}

func (t transition) describe(nl *netlist.Netlist) string {
	if t.isInput {
		return "input " + nl.G.Signals[t.signal]
	}
	return "gate " + nl.Gates[t.gate].Name
}

// Check explores the composition of the netlist with its specification
// environment and returns the verification result.
func Check(nl *netlist.Netlist, spec *sg.Graph) *Result {
	return CheckLimit(nl, spec, DefaultStateLimit)
}

// evalGate recomputes one gate's output with direct pin reads — the
// monomorphized hot-path twin of netlist.Eval. Complex gates (minterm
// table over every specification signal) keep going through the netlist
// evaluator.
func evalGate(nl *netlist.Netlist, vals []bool, g *netlist.Gate, gi int) bool {
	switch g.Kind {
	case netlist.And:
		for _, p := range g.Pins {
			if vals[p.Net] == p.Invert {
				return false
			}
		}
		return true
	case netlist.Or:
		for _, p := range g.Pins {
			if vals[p.Net] != p.Invert {
				return true
			}
		}
		return false
	case netlist.Nor:
		for _, p := range g.Pins {
			if vals[p.Net] != p.Invert {
				return false
			}
		}
		return true
	case netlist.Wire:
		return vals[g.Pins[0].Net] != g.Pins[0].Invert
	case netlist.CElem:
		// C(A,B) = AB + (A+B)C with A = S and B = ¬R.
		a := vals[g.Pins[0].Net] != g.Pins[0].Invert
		b := vals[g.Pins[1].Net] == g.Pins[1].Invert
		cur := vals[g.Out]
		return a && b || (a || b) && cur
	case netlist.RSLatch:
		s := vals[g.Pins[0].Net] != g.Pins[0].Invert
		r := vals[g.Pins[1].Net] != g.Pins[1].Invert
		switch {
		case s && !r:
			return true
		case r && !s:
			return false
		default:
			return vals[g.Out] // hold (S=R=1 also holds, flagged by the verifier)
		}
	default:
		return nl.Eval(vals, gi)
	}
}

// hashWords mixes packed state words into a table hash.
func hashWords(ws []uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range ws {
		h ^= w
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		h *= 0xc4ceb9fe1a85ec53
	}
	return h
}

// engine holds the exploration state of one CheckLimit run: the packed
// composed-state arena, its open-addressing index, the parent links for
// witness traces, and the reusable scratch buffers.
type engine struct {
	nl   *netlist.Netlist
	spec *sg.Graph

	stateWords int // words of packed net values
	keyWords   int // stateWords + 1 (spec state)
	recWords   int // keyWords + gateWords (excited-set snapshot)
	gateWords  int

	arena    []uint64 // recWords per composed state
	slots    []int32  // power-of-two probe table, -1 = empty
	n        int
	parentOf []int32
	viaOf    []int32 // ^signal for inputs, gate index for gates

	// Exploration tallies, accumulated only when stats is set (an
	// observer was enabled when the run started) and published once per
	// run. Guarding the per-probe and per-transition bookkeeping keeps
	// disabled runs at the uninstrumented engine's speed.
	stats       bool
	probes      int64
	resizes     int64
	coneCount   int64 // cone-limited excitation updates
	coneSum     int64 // total gates re-evaluated across updates
	coneMax     int64
	coneBuckets [18]int64 // cone sizes, indexed by bits.Len(size)
}

func newEngine(nl *netlist.Netlist, spec *sg.Graph) *engine {
	e := &engine{nl: nl, spec: spec}
	e.stateWords = (nl.NumNets() + 63) / 64
	e.keyWords = e.stateWords + 1
	e.gateWords = (len(nl.Gates) + 63) / 64
	e.recWords = e.keyWords + e.gateWords
	e.slots = make([]int32, 64)
	for i := range e.slots {
		e.slots[i] = -1
	}
	return e
}

func (e *engine) rec(id int) []uint64 { return e.arena[id*e.recWords : (id+1)*e.recWords] }

func (e *engine) keyEqual(id int, key []uint64) bool {
	r := e.rec(id)
	for w := 0; w < e.keyWords; w++ {
		if r[w] != key[w] {
			return false
		}
	}
	return true
}

// find probes for a packed key, returning its id or -1 plus the slot
// where it would be inserted. It grows the table first, so the slot
// stays valid for an immediately following insert.
func (e *engine) find(key []uint64) (id int, slot uint64) {
	if (e.n+1)*4 > len(e.slots)*3 {
		e.resizes++
		old := e.slots
		e.slots = make([]int32, 2*len(old))
		for i := range e.slots {
			e.slots[i] = -1
		}
		mask := uint64(len(e.slots) - 1)
		for _, s := range old {
			if s < 0 {
				continue
			}
			i := hashWords(e.rec(int(s))[:e.keyWords]) & mask
			for e.slots[i] >= 0 {
				i = (i + 1) & mask
			}
			e.slots[i] = s
		}
	}
	mask := uint64(len(e.slots) - 1)
	i := hashWords(key) & mask
	probes := int64(1)
	for {
		s := e.slots[i]
		if s < 0 {
			id = -1
			break
		}
		if e.keyEqual(int(s), key) {
			id = int(s)
			break
		}
		i = (i + 1) & mask
		probes++
	}
	if e.stats {
		e.probes += probes
	}
	return id, i
}

// insert interns a new composed state: key words plus excited-set
// snapshot into the arena, parent link for witness traces.
func (e *engine) insert(slot uint64, key, exc []uint64, parent int, via int32) int {
	e.slots[slot] = int32(e.n)
	e.arena = append(e.arena, key...)
	e.arena = append(e.arena, exc...)
	e.parentOf = append(e.parentOf, int32(parent))
	e.viaOf = append(e.viaOf, via)
	e.n++
	return e.n - 1
}

func (e *engine) describeVia(v int32) string {
	if v < 0 {
		return "input " + e.nl.G.Signals[^v]
	}
	return "gate " + e.nl.Gates[v].Name
}

// traceTo reconstructs the transition sequence to a state, eliding the
// middle of very long paths.
func (e *engine) traceTo(id int) []string {
	var rev []string
	for id != 0 {
		rev = append(rev, e.describeVia(e.viaOf[id]))
		id = int(e.parentOf[id])
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return elideTrace(rev)
}

// CheckLimit is Check with an explicit composed-state bound.
//
//reprolint:hotpath
func CheckLimit(nl *netlist.Netlist, spec *sg.Graph, limit int) *Result {
	res := &Result{}
	if obs.Enabled() {
		sp := obs.Start("verify.explore", obs.A("spec", spec.Name))
		defer func() { //reprolint:alloc once-per-run span close, taken only when observation is on
			sp.SetAttr("composed_states", res.States)
			sp.End()
		}()
	}
	nNets := nl.NumNets()
	// Dense index of the specification: every spec-successor lookup on
	// the exploration's hot path becomes an O(1) table read.
	ix := sg.NewIndex(spec)

	values := initialValues(nl, spec, res)
	if values == nil {
		return res
	}

	ev := levelize(nl)
	rsGates := make([]int, 0, len(nl.Gates))
	for gi, g := range nl.Gates {
		if g.Kind == netlist.RSLatch {
			rsGates = append(rsGates, gi)
		}
	}

	eng := newEngine(nl, spec)
	eng.stats = obs.Enabled()
	// Scratch buffers — everything on the per-state/per-transition path
	// below reuses these; the only growing allocations are the arena,
	// the parent links and the DFS stack. Transitions fire by flipping
	// the one moved net of curVals in place (restored afterwards), and
	// successor keys are the current key with one bit toggled — nothing
	// on the per-transition path is O(nets).
	curVals := make([]bool, nNets)
	var settled []bool
	if len(rsGates) > 0 && !ev.cyclic {
		settled = make([]bool, nNets)
	}
	excCur := make([]uint64, eng.gateWords)
	excNext := make([]uint64, eng.gateWords)
	curKey := make([]uint64, eng.keyWords)
	keyBuf := make([]uint64, eng.keyWords)
	// At most every gate plus every input signal is enabled at once, so
	// the transition scratch never regrows inside the loop.
	trans := make([]transition, 0, len(nl.Gates)+spec.NumSignals())
	// RS drive conflicts are recorded as (gate, state id) pairs and
	// rendered after exploration: the witness strings allocate only when
	// a violation actually exists, never on the clean hot path.
	var rsPending []rsWitness

	// Intern the initial state with its full excitation scan.
	for gi := range nl.Gates {
		if evalGate(nl, values, &nl.Gates[gi], gi) != values[nl.Gates[gi].Out] {
			excCur[gi>>6] |= 1 << uint(gi&63)
		}
	}
	for i, v := range values {
		if v {
			keyBuf[i>>6] |= 1 << uint(i&63)
		}
	}
	keyBuf[eng.stateWords] = uint64(spec.Initial)
	_, slot := eng.find(keyBuf)
	eng.insert(slot, keyBuf, excCur, -1, 0)
	res.States = 1
	queue := []int32{0}

	for len(queue) > 0 {
		head := int(queue[len(queue)-1])
		queue = queue[:len(queue)-1]
		// Unpack the state: the arena may grow while head is expanded,
		// so copy rather than alias.
		rec := eng.rec(head)
		copy(curKey, rec[:eng.keyWords])
		for i := range curVals {
			curVals[i] = curKey[i>>6]>>uint(i&63)&1 == 1
		}
		specState := int(curKey[eng.stateWords])
		copy(excCur, rec[eng.keyWords:])

		// Enabled moves, in the reference order: spec-allowed inputs
		// first, then excited gates ascending.
		trans = trans[:0]
		for _, edge := range spec.States[specState].Succ {
			if spec.Input[edge.Signal] {
				trans = append(trans, transition{isInput: true, signal: edge.Signal})
			}
		}
		for w, word := range excCur {
			for word != 0 {
				gi := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				trans = append(trans, transition{gate: gi})
			}
		}
		if len(trans) == 0 && len(res.Deadlocks) < maxWitnesses {
			// The specification always has successors (cyclic specs);
			// a composed state with nothing enabled means the circuit
			// wedged (e.g. an output the logic can never produce).
			res.Deadlocks = append(res.Deadlocks, render(nl, curVals, specState))
		}

		// RS drive conflicts: the set and reset FUNCTIONS both evaluate
		// to 1 over the settled signal values. Transient overlaps where
		// one side is a stale net still excited to fall are inherent to
		// the architecture and benign for the primitive latch; a
		// functional overlap means the covers are not disjoint — a real
		// drive fight. One levelized sweep settles the whole SOP
		// network; malformed cyclic networks fall back to the recursive
		// reference evaluator.
		if len(rsGates) > 0 {
			if settled != nil {
				ev.sweep(curVals, settled)
			}
			for _, gi := range rsGates {
				g := &nl.Gates[gi]
				var s, r bool
				if settled != nil {
					s, r = pinVal(settled, g.Pins[0]), pinVal(settled, g.Pins[1])
				} else {
					s = funcVal(nl, curVals, g.Pins[0], map[int]bool{})
					r = funcVal(nl, curVals, g.Pins[1], map[int]bool{})
				}
				if s && r && len(rsPending) < maxWitnesses {
					rsPending = append(rsPending, rsWitness{gate: gi, state: int32(head)}) //reprolint:alloc grows only when a drive conflict exists, capped at maxWitnesses
				}
			}
		}

		for _, t := range trans {
			// Fire t: exactly one net flips. The spec successor is
			// resolved before touching curVals so an unexpected output
			// (conformance failure) drops the state without any undo.
			ns := specState
			var flipped int
			var via int32
			if t.isInput {
				flipped = nl.SignalNet[t.signal]
				to, found := ix.Successor(specState, t.signal)
				if !found {
					panic("verify: input fired without spec edge")
				}
				ns = to
				via = int32(^t.signal)
			} else {
				flipped = nl.Gates[t.gate].Out
				via = int32(t.gate)
				if sig := nl.Nets[flipped].Signal; sig >= 0 {
					to, found := ix.Successor(specState, sig)
					if !found {
						if len(res.Unexpected) < maxWitnesses {
							res.Unexpected = append(res.Unexpected, Unexpected{Signal: sig, State: render(nl, curVals, specState)})
						}
						continue
					}
					ns = to
				}
			}
			curVals[flipped] = !curVals[flipped]

			// Cone-limited excitation update: only gates reading (or
			// driving) the flipped net can change status.
			cone := ev.fanout[flipped]
			if eng.stats {
				eng.coneCount++
				eng.coneSum += int64(len(cone))
				if int64(len(cone)) > eng.coneMax {
					eng.coneMax = int64(len(cone))
				}
				if bi := bits.Len(uint(len(cone))); bi < len(eng.coneBuckets) {
					eng.coneBuckets[bi]++
				} else {
					eng.coneBuckets[len(eng.coneBuckets)-1]++
				}
			}
			copy(excNext, excCur)
			for _, gi := range cone {
				g := &nl.Gates[gi]
				if evalGate(nl, curVals, g, int(gi)) != curVals[g.Out] {
					excNext[gi>>6] |= 1 << uint(gi&63)
				} else {
					excNext[gi>>6] &^= 1 << uint(gi&63)
				}
			}

			// Semi-modularity of gates: every gate excited before the
			// move (other than the mover) must stay excited after it.
			for w := range excNext {
				h := excCur[w] &^ excNext[w]
				if !t.isInput && t.gate>>6 == w {
					h &^= 1 << uint(t.gate&63)
				}
				for h != 0 {
					gi := w<<6 + bits.TrailingZeros64(h)
					h &= h - 1
					if len(res.Hazards) < maxWitnesses {
						// Witnesses render the pre-move state: undo the
						// flip around the (rare) formatting call.
						curVals[flipped] = !curVals[flipped]
						state := render(nl, curVals, specState)
						curVals[flipped] = !curVals[flipped]
						res.Hazards = append(res.Hazards, Hazard{
							Gate:     gi,
							GateName: nl.Gates[gi].Name,
							By:       t.describe(nl),
							State:    state,
							Trace:    eng.traceTo(head),
						})
					}
				}
			}

			// Successor key: the current key with the moved net's bit
			// toggled and the new spec state.
			copy(keyBuf, curKey)
			keyBuf[flipped>>6] ^= 1 << uint(flipped&63)
			keyBuf[eng.stateWords] = uint64(ns)
			if id, slot := eng.find(keyBuf); id < 0 {
				if res.States >= limit {
					res.Truncated = true
					eng.flushRSConflicts(rsPending, res)
					eng.publish(ev, res)
					return res
				}
				id = eng.insert(slot, keyBuf, excNext, head, via)
				res.States++
				queue = append(queue, int32(id))
			}
			curVals[flipped] = !curVals[flipped] // restore the pre-move state
		}
	}
	eng.flushRSConflicts(rsPending, res)
	eng.publish(ev, res)
	return res
}

// rsWitness is one pending RS drive conflict: the latch gate and the
// interned composed state it was observed in. Witness strings are
// formatted lazily from the arena after exploration finishes.
type rsWitness struct {
	gate  int
	state int32
}

// stateVals unpacks an interned composed state into vals and returns
// its specification state.
func (e *engine) stateVals(id int, vals []bool) (specState int) {
	rec := e.rec(id)
	for i := range vals {
		vals[i] = rec[i>>6]>>uint(i&63)&1 == 1
	}
	return int(rec[e.stateWords])
}

// flushRSConflicts renders the pending RS drive-conflict witnesses into
// the result. It runs once per CheckLimit, off the exploration loop.
func (e *engine) flushRSConflicts(pending []rsWitness, res *Result) {
	if len(pending) == 0 {
		return
	}
	vals := make([]bool, e.nl.NumNets())
	for _, w := range pending {
		specState := e.stateVals(int(w.state), vals)
		res.RSConflict = append(res.RSConflict,
			fmt.Sprintf("%s in state %s", e.nl.Gates[w.gate].Name, render(e.nl, vals, specState)))
	}
}

// publish reports one verification run's tallies to the observability
// layer (a no-op without an enabled observer).
func (e *engine) publish(ev *evaluator, res *Result) {
	o := obs.Get()
	if o == nil {
		return
	}
	m := o.Metrics
	m.Counter("verify_states_total").Add(int64(res.States))
	m.Counter("verify_probes_total").Add(e.probes)
	m.Counter("verify_resizes_total").Add(e.resizes)
	m.Counter("verify_arena_bytes_total").Add(int64(len(e.arena) * 8))
	m.Counter("verify_cone_updates_total").Add(e.coneCount)
	m.Counter("verify_cone_gates_total").Add(e.coneSum)
	m.Gauge("verify_cone_gates_max").Set(e.coneMax)
	h := m.Histogram("verify_cone_size", nil)
	for bi, c := range e.coneBuckets {
		if c == 0 {
			continue
		}
		// bits.Len(size)==bi means size ∈ [2^(bi-1), 2^bi); report the
		// bucket's lower bound as the representative value.
		v := 0.5
		if bi > 0 {
			v = float64(uint64(1) << (bi - 1))
		}
		h.AddSample(v, c)
	}
	m.Gauge("verify_levelized_gates").Set(int64(len(ev.order)))
	if ev.cyclic {
		m.Counter("verify_levelize_cyclic_total").Add(1)
	}
	var fan int64
	for _, f := range ev.fanout {
		fan += int64(len(f))
	}
	m.Gauge("verify_fanout_entries").Set(fan)
	m.Counter("verify_hazards_total").Add(int64(len(res.Hazards)))
	m.Counter("verify_unexpected_total").Add(int64(len(res.Unexpected)))
	m.Counter("verify_deadlocks_total").Add(int64(len(res.Deadlocks)))
	obs.Info("verify done", "states", res.States, "hazards", len(res.Hazards), "ok", res.OK())
}
