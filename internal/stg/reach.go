package stg

import (
	"fmt"
	"math/bits"

	"repro/internal/obs"
	"repro/internal/sg"
)

// DefaultStateLimit bounds reachability exploration to guard against
// state explosion in malformed nets.
const DefaultStateLimit = 1 << 20

// marking is a bitset over places.
type marking []uint64

func newMarking(places int) marking { return make(marking, (places+63)/64) }

func (m marking) has(p int) bool { return m[p/64]>>uint(p%64)&1 == 1 }
func (m marking) set(p int)      { m[p/64] |= 1 << uint(p%64) }
func (m marking) clear(p int)    { m[p/64] &^= 1 << uint(p%64) }
func (m marking) clone() marking { c := make(marking, len(m)); copy(c, m); return c }

// sgEdge is one explored firing: marking from reaches marking to by
// firing transition trans. The fields are int32, 12 bytes an edge:
// states stay below DefaultStateLimit and transitions below the net's
// size.
type sgEdge struct{ from, trans, to int32 }

// fireMasks holds the word-level firing machinery of one net: per
// transition the pre-set and post-set as place bitmasks, so Enabled is a
// word-wise AND comparison and firing is AND-NOT/OR — no per-place loops
// and no allocation on the hot path.
type fireMasks struct {
	words     int      // words per marking
	pre, post []uint64 // t*words .. (t+1)*words
	hasPre    []bool   // transition has a non-empty pre-set
	dupPost   []bool   // a place repeats in PostT[t]: firing always violates 1-safety
}

func newFireMasks(n *STG) *fireMasks {
	words := (n.NumPlaces() + 63) / 64
	nt := len(n.Trans)
	fm := &fireMasks{
		words:   words,
		pre:     make([]uint64, nt*words),
		post:    make([]uint64, nt*words),
		hasPre:  make([]bool, nt),
		dupPost: make([]bool, nt),
	}
	for t := 0; t < nt; t++ {
		pre := fm.pre[t*words : (t+1)*words]
		post := fm.post[t*words : (t+1)*words]
		for _, p := range n.PreT[t] {
			pre[p/64] |= 1 << uint(p%64)
		}
		fm.hasPre[t] = len(n.PreT[t]) > 0
		for _, p := range n.PostT[t] {
			if post[p/64]>>uint(p%64)&1 == 1 {
				fm.dupPost[t] = true
			}
			post[p/64] |= 1 << uint(p%64)
		}
	}
	return fm
}

// enabled reports whether transition t is enabled under m: the pre-set
// mask is fully contained in the marking. Source transitions (empty
// pre-set) are rejected — they would be unsafe.
func (fm *fireMasks) enabled(m []uint64, t int) bool {
	if !fm.hasPre[t] {
		return false
	}
	pre := fm.pre[t*fm.words : (t+1)*fm.words]
	for w, pw := range pre {
		if m[w]&pw != pw {
			return false
		}
	}
	return true
}

// fire computes the marking after firing t into dst (a caller-owned
// scratch buffer — nothing is allocated, and a failed fire leaves no
// garbage behind). A post place that is still marked after the pre-set
// is consumed violates 1-safety; the rare error path replays the firing
// place by place to name the same doubly-marked place the reference
// implementation reports.
func (fm *fireMasks) fire(n *STG, m, dst []uint64, t int) error {
	if fm.dupPost[t] {
		return n.fireError(m, t)
	}
	pre := fm.pre[t*fm.words : (t+1)*fm.words]
	post := fm.post[t*fm.words : (t+1)*fm.words]
	for w := range dst {
		rem := m[w] &^ pre[w]
		if rem&post[w] != 0 {
			return n.fireError(m, t)
		}
		dst[w] = rem | post[w]
	}
	return nil
}

// fireError replays the reference clear-then-set firing order to report
// the first doubly-marked place, matching the historical error text.
func (n *STG) fireError(m marking, t int) error {
	out := m.clone()
	for _, p := range n.PreT[t] {
		out.clear(p)
	}
	for _, p := range n.PostT[t] {
		if out.has(p) {
			return fmt.Errorf("stg: net not 1-safe: place %d doubly marked firing %s", p, n.TransLabel(t))
		}
		out.set(p)
	}
	return fmt.Errorf("stg: net not 1-safe firing %s", n.TransLabel(t))
}

// hashWords mixes a marking's words into a table hash (splitmix-style
// finalizer per word; no byte-string materialization).
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

// markTable is an open-addressing hash set of markings. The markings
// themselves live in a grow-only arena (one flat []uint64), so insertion
// costs one append of words and the table stores only int32 ids. The
// probe/resize tallies accumulate only when stats is set (an observer
// was enabled) and are published once per build, so disabled builds
// keep the uninstrumented loop.
type markTable struct {
	words   int
	arena   []uint64
	slots   []int32 // power-of-two probe table over arena ids, -1 = empty
	n       int
	stats   bool
	probes  int64 // slot inspections across all lookups
	resizes int64 // probe-table doublings
}

func newMarkTable(words int) *markTable {
	tb := &markTable{words: words, slots: make([]int32, 64), stats: obs.Enabled()}
	for i := range tb.slots {
		tb.slots[i] = -1
	}
	return tb
}

// at returns the id-th marking. The slice aliases the arena and is
// invalidated by the next insertion.
func (tb *markTable) at(id int) []uint64 { return tb.arena[id*tb.words : (id+1)*tb.words] }

func (tb *markTable) equal(id int, m []uint64) bool {
	s := tb.at(id)
	for w := range m {
		if s[w] != m[w] {
			return false
		}
	}
	return true
}

func (tb *markTable) grow() {
	tb.resizes++
	old := tb.slots
	tb.slots = make([]int32, 2*len(old))
	mask := uint64(len(tb.slots) - 1)
	for i := range tb.slots {
		tb.slots[i] = -1
	}
	for _, id := range old {
		if id < 0 {
			continue
		}
		i := hashWords(tb.at(int(id))) & mask
		for tb.slots[i] >= 0 {
			i = (i + 1) & mask
		}
		tb.slots[i] = id
	}
}

// lookupOrAdd interns m, copying it into the arena when new.
func (tb *markTable) lookupOrAdd(m []uint64) (id int, added bool) {
	if (tb.n+1)*4 > len(tb.slots)*3 {
		tb.grow()
	}
	mask := uint64(len(tb.slots) - 1)
	i := hashWords(m) & mask
	probes := int64(1)
	for {
		s := tb.slots[i]
		if s < 0 {
			tb.slots[i] = int32(tb.n)
			tb.arena = append(tb.arena, m...)
			tb.n++
			id, added = tb.n-1, true
			break
		}
		if tb.equal(int(s), m) {
			id, added = int(s), false
			break
		}
		i = (i + 1) & mask
		probes++
	}
	if tb.stats {
		tb.probes += probes
	}
	return id, added
}

// Enabled reports whether transition t is enabled under m.
func (n *STG) Enabled(m marking, t int) bool {
	if len(n.PreT[t]) == 0 {
		return false // source transitions unsupported: would be unsafe
	}
	for _, p := range n.PreT[t] {
		if !m.has(p) {
			return false
		}
	}
	return true
}

// explore plays the token game over the reachable markings and returns
// the populated intern table (tb.n is the state count) and the labelled
// firing edges in discovery order. Markings are interned in an
// arena-backed hash table; firing goes through precomputed word masks
// into two reused scratch buffers, so the loop allocates only for the
// arena and the edge list. Nets with at most 64 places (all of Table 1)
// take a register-resident single-word path. unsafe reports whether the
// run aborted on a 1-safety violation (as opposed to the state limit).
//
//reprolint:hotpath
func explore(n *STG, limit int) (tb *markTable, edges []sgEdge, unsafe bool, err error) {
	fm := newFireMasks(n)
	tb = newMarkTable(fm.words)
	init := make([]uint64, fm.words)
	for p, ok := range n.InitialMarking {
		if ok {
			init[p/64] |= 1 << uint(p%64)
		}
	}
	tb.lookupOrAdd(init)

	nt := len(n.Trans)
	if fm.words == 1 {
		next := make([]uint64, 1)
		for head := 0; head < tb.n; head++ {
			cur := tb.arena[head] // single word: no aliasing concern
			for t := 0; t < nt; t++ {
				pw := fm.pre[t]
				if !fm.hasPre[t] || cur&pw != pw {
					continue
				}
				rem := cur &^ pw
				if rem&fm.post[t] != 0 || fm.dupPost[t] {
					return tb, nil, true, n.fireError(marking{cur}, t)
				}
				next[0] = rem | fm.post[t]
				to, added := tb.lookupOrAdd(next)
				if added && to >= limit {
					return tb, nil, false, limitError(limit)
				}
				edges = append(edges, sgEdge{from: int32(head), trans: int32(t), to: int32(to)}) //reprolint:alloc the edge list is the result; amortized growth, not per-iteration garbage
			}
		}
		return tb, edges, false, nil
	}

	cur := make([]uint64, fm.words)
	next := make([]uint64, fm.words)
	for head := 0; head < tb.n; head++ {
		copy(cur, tb.at(head)) // the arena may grow while we expand head
		for t := 0; t < nt; t++ {
			if !fm.enabled(cur, t) {
				continue
			}
			if err := fm.fire(n, cur, next, t); err != nil {
				return tb, nil, true, err
			}
			to, added := tb.lookupOrAdd(next)
			if added && to >= limit {
				return tb, nil, false, limitError(limit)
			}
			edges = append(edges, sgEdge{from: int32(head), trans: int32(t), to: int32(to)}) //reprolint:alloc the edge list is the result; amortized growth, not per-iteration garbage
		}
	}
	return tb, edges, false, nil
}

// ReachableMarkings replays the explicit token game and returns every
// reachable marking as a place-indexed bool vector, in discovery order —
// state i of BuildSG's graph is row i. It is the anchor tying explicit
// state ids to symbolic marking sets in the engine differential tests.
func ReachableMarkings(n *STG, limit int) ([][]bool, error) {
	tb, _, _, err := explore(n, limit)
	if err != nil {
		return nil, err
	}
	places := n.NumPlaces()
	out := make([][]bool, tb.n)
	for i := range out {
		mk := tb.at(i)
		row := make([]bool, places)
		for p := 0; p < places; p++ {
			row[p] = mk[p/64]>>uint(p%64)&1 == 1
		}
		out[i] = row
	}
	return out, nil
}

// limitError formats the state-limit abort off the exploration hot
// path; it runs at most once per build.
func limitError(limit int) error {
	return fmt.Errorf("stg: state limit %d exceeded", limit)
}

// BuildSG explores the reachable markings of the net under interleaving
// semantics, infers a consistent binary encoding of the signals, and
// returns the state graph. It fails when the net is unsafe, the encoding
// is inconsistent (the STG violates the consistent state assignment
// rules), a signal never fires, or exploration exceeds DefaultStateLimit.
func BuildSG(n *STG) (*sg.Graph, error) {
	return BuildSGLimit(n, DefaultStateLimit)
}

// BuildSGLimit is BuildSG with an explicit bound on the number of states.
func BuildSGLimit(n *STG, limit int) (*sg.Graph, error) {
	if err := checkBuildable(n); err != nil {
		return nil, err
	}
	if !obs.Enabled() {
		tb, edges, _, err := explore(n, limit)
		if err != nil {
			return nil, err
		}
		return assembleSG(n, tb.n, edges)
	}
	sp := obs.Start("reach", obs.A("spec", n.Name))
	defer sp.End()
	defer sp.AttrMemDelta(obs.MarkMem())
	esp := obs.Start("reach.explore")
	tb, edges, unsafe, err := explore(n, limit)
	esp.End()
	publishReach(tb, len(edges), unsafe)
	if err != nil {
		return nil, err
	}
	sp.SetAttr("states", tb.n)
	sp.SetAttr("edges", len(edges))
	asp := obs.Start("reach.assemble")
	g, err := assembleSG(n, tb.n, edges)
	asp.End()
	return g, err
}

// publishReach reports one exploration's tallies to the observability
// layer (a no-op without an enabled observer).
func publishReach(tb *markTable, edges int, unsafe bool) {
	o := obs.Get()
	if o == nil {
		return
	}
	m := o.Metrics
	m.Counter("stg_reach_states_total").Add(int64(tb.n))
	m.Counter("stg_reach_edges_total").Add(int64(edges))
	m.Counter("stg_reach_probes_total").Add(tb.probes)
	m.Counter("stg_reach_resizes_total").Add(tb.resizes)
	m.Counter("stg_reach_arena_bytes_total").Add(int64(len(tb.arena) * 8))
	if unsafe {
		m.Counter("stg_reach_unsafe_rejections_total").Add(1)
	}
	obs.Info("reach done", "states", tb.n, "edges", edges, "probes", tb.probes)
}

// checkBuildable rejects nets reachability cannot represent.
func checkBuildable(n *STG) error {
	if len(n.Signals) > 64 {
		return fmt.Errorf("stg: %d signals exceed the 64-signal limit", len(n.Signals))
	}
	if len(n.Trans) == 0 {
		return fmt.Errorf("stg: net has no transitions")
	}
	return nil
}

// assembleSG infers a consistent binary signal encoding over the
// explored states and builds the state graph. Each state holds its
// partial encoding in two words, known and one: bit i of known says
// signal i's value is inferred, bit i of one is that value. A transition
// pins its own signal before and after it fires; every other signal
// keeps its value along an edge, so a value known at one end is copied
// to the other. The fixpoint sweeps the states in order and each
// state's edges in discovery order, deciding all signals of an edge in
// a few word operations; a conflict reports its lowest signal, the one
// a signal-by-signal loop over the same sweep would meet first. The
// adjacency is a counting-sorted edge index, so assembly performs a
// constant number of allocations regardless of the state count.
func assembleSG(n *STG, nstates int, edges []sgEdge) (*sg.Graph, error) {
	nsig := len(n.Signals)
	words := make([]uint64, 2*nstates)
	known, one := words[:nstates], words[nstates:]

	// Per-transition constants: the signal's bit, and that bit when the
	// signal is 1 after the transition fires (so 1 before it when 0).
	nt := len(n.Trans)
	trWords := make([]uint64, 2*nt)
	trBit, trAfter := trWords[:nt], trWords[nt:]
	for t, tr := range n.Trans {
		trBit[t] = 1 << uint(tr.Signal)
		if tr.Dir == Plus {
			trAfter[t] = trBit[t]
		}
	}

	// Counting-sorted adjacency: eidx[start[s]:start[s+1]] lists the
	// indices of s's outgoing edges, preserving their discovery order.
	start := make([]int32, nstates+1)
	for _, e := range edges {
		start[e.from+1]++
	}
	for s := 0; s < nstates; s++ {
		start[s+1] += start[s]
	}
	eidx := make([]int32, len(edges))
	fill := make([]int32, nstates)
	copy(fill, start)
	for i, e := range edges {
		eidx[fill[e.from]] = int32(i)
		fill[e.from]++
	}

	inconsistent := func(conflict uint64) error {
		return fmt.Errorf("stg: inconsistent state assignment for signal %s", n.Signals[bits.TrailingZeros64(conflict)])
	}

	// Seed: an enabled a+ pins a=0, an enabled a- pins a=1.
	for s := 0; s < nstates; s++ {
		for _, ei := range eidx[start[s]:start[s+1]] {
			t := edges[ei].trans
			bit, before := trBit[t], trBit[t]&^trAfter[t]
			if known[s]&bit != 0 && (one[s]^before)&bit != 0 {
				return nil, inconsistent(bit)
			}
			known[s] |= bit
			one[s] |= before
		}
	}
	// Propagate along edges in both directions until fixpoint. The seed
	// pinned every edge's signal at its source, so an edge s → t carries
	// s's values with its own signal replaced by the after-value: those
	// move forward to t, and t's other known values move back to s.
	// Only newly inferred values raise changed, so the sweep count, and
	// with it the first conflict met, is the signal-by-signal loop's.
	changed := true
	for changed {
		changed = false
		for s := 0; s < nstates; s++ {
			for _, ei := range eidx[start[s]:start[s+1]] {
				e := edges[ei]
				bit := trBit[e.trans]
				carried := known[s] | bit
				val := one[s]&^bit | trAfter[e.trans]
				kt := known[e.to]
				if conflict := carried & kt & (val ^ one[e.to]); conflict != 0 {
					return nil, inconsistent(conflict)
				}
				if fwd := carried &^ kt; fwd != 0 {
					known[e.to] |= fwd
					one[e.to] |= val & fwd
					changed = true
				}
				if back := kt &^ carried; back != 0 {
					known[s] |= back
					one[s] |= one[e.to] & back
					changed = true
				}
			}
		}
	}
	if unknown := (uint64(1)<<uint(nsig) - 1) &^ known[0]; unknown != 0 {
		return nil, fmt.Errorf("stg: signal %s never fires; cannot infer its value", n.Signals[bits.TrailingZeros64(unknown)])
	}

	g := &sg.Graph{
		Name:    n.Name,
		Signals: append([]string(nil), n.Signals...),
		Input:   make([]bool, nsig),
		Initial: 0,
	}
	for i, k := range n.Kinds {
		g.Input[i] = k == Input
	}
	g.States = make([]sg.State, 0, nstates)
	for s := 0; s < nstates; s++ {
		g.AddState(one[s])
	}
	// Pre-size every adjacency list out of two flat buffers: AddEdge then
	// appends in place. States without edges keep nil lists, exactly as
	// append-from-nil left them.
	indeg := make([]int32, nstates)
	for _, e := range edges {
		indeg[e.to]++
	}
	succBuf := make([]sg.Edge, len(edges))
	predBuf := make([]sg.Edge, len(edges))
	so, po := 0, 0
	for s := 0; s < nstates; s++ {
		if od := int(start[s+1] - start[s]); od > 0 {
			g.States[s].Succ = succBuf[so : so : so+od]
			so += od
		}
		if id := int(indeg[s]); id > 0 {
			g.States[s].Pred = predBuf[po : po : po+id]
			po += id
		}
	}
	for _, e := range edges {
		tr := n.Trans[e.trans]
		d := sg.Plus
		if tr.Dir == Minus {
			d = sg.Minus
		}
		if err := g.AddEdge(int(e.from), int(e.to), tr.Signal, d); err != nil {
			return nil, err
		}
	}
	return g, nil
}
