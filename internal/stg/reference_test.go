package stg

import (
	"fmt"

	"repro/internal/sg"
)

// This file retains two differential-testing oracles (see
// reach_diff_test.go): the seed revision's map-based reachability loop,
// which clones markings per fire and interns them through a
// string-keyed map, for the arena/hash-table explorer in reach.go; and
// the byte-per-signal encoding inference, for assembleSG's
// word-per-state fixpoint.

// key renders the marking as a byte-string map key.
func (m marking) key() string {
	b := make([]byte, len(m)*8)
	for i, w := range m {
		for j := 0; j < 8; j++ {
			b[i*8+j] = byte(w >> uint(8*j))
		}
	}
	return string(b)
}

// fireRef returns the marking after firing t, or an error when the net
// is not 1-safe at this step.
func (n *STG) fireRef(m marking, t int) (marking, error) {
	out := m.clone()
	for _, p := range n.PreT[t] {
		out.clear(p)
	}
	for _, p := range n.PostT[t] {
		if out.has(p) {
			return nil, fmt.Errorf("stg: net not 1-safe: place %d doubly marked firing %s", p, n.TransLabel(t))
		}
		out.set(p)
	}
	return out, nil
}

// exploreRef is the reference token game: same discovery order and
// same errors as explore, clone-and-map mechanics.
func exploreRef(n *STG, limit int) (int, []sgEdge, error) {
	init := newMarking(n.NumPlaces())
	for p, ok := range n.InitialMarking {
		if ok {
			init.set(p)
		}
	}
	index := map[string]int{init.key(): 0}
	marks := []marking{init}
	var edges []sgEdge
	for head := 0; head < len(marks); head++ {
		m := marks[head]
		for t := range n.Trans {
			if !n.Enabled(m, t) {
				continue
			}
			next, err := n.fireRef(m, t)
			if err != nil {
				return 0, nil, err
			}
			k := next.key()
			to, ok := index[k]
			if !ok {
				to = len(marks)
				if to >= limit {
					return 0, nil, fmt.Errorf("stg: state limit %d exceeded", limit)
				}
				index[k] = to
				marks = append(marks, next)
			}
			edges = append(edges, sgEdge{from: int32(head), trans: int32(t), to: int32(to)})
		}
	}
	return len(marks), edges, nil
}

// BuildSGRef is BuildSG on the reference explorer and the reference
// encoding inference. It lives in a test file, so only test builds
// carry it; it is exported for the external differential tests (and
// for bisecting any future reachability regression).
func BuildSGRef(n *STG, limit int) (*sg.Graph, error) {
	if err := checkBuildable(n); err != nil {
		return nil, err
	}
	nstates, edges, err := exploreRef(n, limit)
	if err != nil {
		return nil, err
	}
	return assembleSGRef(n, nstates, edges)
}

// assembleSGRef is the reference encoding inference: the same
// fixpoint as assembleSG over a byte per state and signal, deciding
// one signal at a time, and the same graph assembly.
func assembleSGRef(n *STG, nstates int, edges []sgEdge) (*sg.Graph, error) {
	// Infer signal values. val[s*nsig+sig] ∈ {unknown, zero, one}.
	const (
		unknown int8 = iota
		zero
		one
	)
	nsig := len(n.Signals)
	val := make([]int8, nstates*nsig)

	// Per-transition inference constants: the signal, its value after the
	// transition fires, and the complementary value it must hold before.
	nt := len(n.Trans)
	trSig := make([]int32, nt)
	trAfter := make([]int8, nt)
	trBefore := make([]int8, nt)
	for t, tr := range n.Trans {
		trSig[t] = int32(tr.Signal)
		if tr.Dir == Plus {
			trAfter[t], trBefore[t] = one, zero
		} else {
			trAfter[t], trBefore[t] = zero, one
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

	inconsistent := func(sig int) error {
		return fmt.Errorf("stg: inconsistent state assignment for signal %s", n.Signals[sig])
	}

	// Seed: an enabled a+ pins a=0, an enabled a- pins a=1.
	for s := 0; s < nstates; s++ {
		row := val[s*nsig : s*nsig+nsig]
		for _, ei := range eidx[start[s]:start[s+1]] {
			t := edges[ei].trans
			sig := trSig[t]
			if cur := row[sig]; cur == unknown {
				row[sig] = trBefore[t]
			} else if cur != trBefore[t] {
				return nil, inconsistent(int(sig))
			}
		}
	}
	// Propagate along edges in both directions until fixpoint. The
	// before-value assignment deliberately does not raise changed — the
	// original converged that way, and the fixpoint must be identical.
	changed := true
	for changed {
		changed = false
		for s := 0; s < nstates; s++ {
			vs := val[s*nsig : s*nsig+nsig]
			for _, ei := range eidx[start[s]:start[s+1]] {
				e := edges[ei]
				tsig := int(trSig[e.trans])
				vt := val[int(e.to)*nsig : int(e.to)*nsig+nsig]
				for sig := 0; sig < nsig; sig++ {
					if sig == tsig {
						after := trAfter[e.trans]
						if vt[sig] == unknown {
							vt[sig] = after
							changed = true
						} else if vt[sig] != after {
							return nil, inconsistent(sig)
						}
						// Before firing a±, a has the complementary value.
						if before := trBefore[e.trans]; vs[sig] == unknown {
							vs[sig] = before
						} else if vs[sig] != before {
							return nil, inconsistent(sig)
						}
						continue
					}
					if f := vs[sig]; f != unknown {
						if vt[sig] == unknown {
							vt[sig] = f
							changed = true
						} else if vt[sig] != f {
							return nil, inconsistent(sig)
						}
					} else if b := vt[sig]; b != unknown {
						// Backward: value at destination implies value at
						// source for unrelated signals.
						vs[sig] = b
						changed = true
					}
				}
			}
		}
	}
	for sig := 0; sig < nsig; sig++ {
		if val[sig] == unknown {
			return nil, fmt.Errorf("stg: signal %s never fires; cannot infer its value", n.Signals[sig])
		}
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
		row := val[s*nsig : s*nsig+nsig]
		var code uint64
		for sig := 0; sig < nsig; sig++ {
			if row[sig] == one {
				code |= 1 << uint(sig)
			}
		}
		g.AddState(code)
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
