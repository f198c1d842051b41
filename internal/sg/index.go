package sg

// Index is a precomputed dense view of one state graph: per-state
// excitation bitmasks and a state×signal successor table. It turns the
// O(deg) Succ-slice scans of Excited and Successor — the inner loop of
// region decomposition, MC checking and verification — into O(1) array
// lookups. Build it once per graph (the graph must not gain states or
// edges afterwards) and thread it through the analysis.
type Index struct {
	G *Graph

	nsig    int
	excited []uint64 // per-state bitmask of excited signals
	excOut  []uint64 // per-state bitmask of excited non-input signals
	succ    []int32  // state*nsig + sig → successor state + 1, or 0
}

// NewIndex builds the dense index of g.
func NewIndex(g *Graph) *Index {
	ix := new(Index)
	ix.Rebuild(g)
	return ix
}

// Rebuild makes ix the index of g in place, reusing its tables when
// they are large enough, so a caller indexing graph after graph (repair
// scoring, one candidate at a time) stops allocating once the tables
// fit its largest graph. Whatever read the old index must be done.
func (ix *Index) Rebuild(g *Graph) {
	ns, nsig := g.NumStates(), g.NumSignals()
	// excited and excOut are the two halves of one backing; both are
	// rewritten for every state, the successor table only per edge.
	bits := ix.excited[:cap(ix.excited)]
	if len(bits) < 2*ns {
		bits = make([]uint64, 2*ns)
	}
	if cap(ix.succ) < ns*nsig {
		ix.succ = make([]int32, ns*nsig)
	} else {
		ix.succ = ix.succ[:ns*nsig]
		clear(ix.succ)
	}
	ix.G, ix.nsig = g, nsig
	ix.excited, ix.excOut = bits[:ns], bits[ns:2*ns]
	inputMask := uint64(0)
	for sig, in := range g.Input {
		if in {
			inputMask |= 1 << uint(sig)
		}
	}
	for s := range g.States {
		var m uint64
		row := ix.succ[s*nsig : (s+1)*nsig]
		for _, e := range g.States[s].Succ {
			m |= 1 << uint(e.Signal)
			// Stored shifted by one so the zeroed table already
			// means "no edge" — the table needs no -1 fill pass.
			row[e.Signal] = int32(e.To) + 1
		}
		ix.excited[s] = m
		ix.excOut[s] = m &^ inputMask
	}
}

// Excited reports whether signal sig has an enabled transition in state s.
func (ix *Index) Excited(s, sig int) bool { return ix.excited[s]>>uint(sig)&1 == 1 }

// ExcitedMask returns the bitmask of signals excited in state s.
func (ix *Index) ExcitedMask(s int) uint64 { return ix.excited[s] }

// ExcitedOutputs returns the bitmask of excited non-input signals in s.
func (ix *Index) ExcitedOutputs(s int) uint64 { return ix.excOut[s] }

// Successor returns the destination of firing signal sig in state s and
// whether such an edge exists.
func (ix *Index) Successor(s, sig int) (int, bool) {
	to := ix.succ[s*ix.nsig+sig]
	return int(to) - 1, to > 0
}

// Ordered reports whether signal b is ordered with respect to the
// excitation region er (Definition 11): no transition of b is excited
// within er. The region's own signal is not ordered with itself.
func (ix *Index) Ordered(er *Region, b int) bool {
	if b == er.Signal {
		return false
	}
	bit := uint64(1) << uint(b)
	for _, s := range er.States {
		if ix.excited[s]&bit != 0 {
			return false
		}
	}
	return true
}

// Concurrent reports whether signal b is concurrent with er's transition
// (the negation of Ordered for signals other than er's own).
func (ix *Index) Concurrent(er *Region, b int) bool {
	if b == er.Signal {
		return false
	}
	return !ix.Ordered(er, b)
}
