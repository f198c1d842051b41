package stg

import (
	"fmt"

	"repro/internal/sg"
)

// This file retains the seed revision's map-based reachability loop as a
// differential-testing oracle for the arena/hash-table explorer in
// reach.go (see reach_diff_test.go). It shares the encoding-inference
// and graph-assembly code; only the token game differs: markings are
// cloned per fire and interned through a string-keyed map.

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
			edges = append(edges, sgEdge{from: head, trans: t, to: to})
		}
	}
	return len(marks), edges, nil
}

// BuildSGRef is BuildSG on the reference explorer. It lives in a test
// file, so only test builds carry it; it is exported for the external
// differential tests (and for bisecting any future reachability
// regression).
func BuildSGRef(n *STG, limit int) (*sg.Graph, error) {
	if err := checkBuildable(n); err != nil {
		return nil, err
	}
	nstates, edges, err := exploreRef(n, limit)
	if err != nil {
		return nil, err
	}
	return assembleSG(n, nstates, edges)
}
