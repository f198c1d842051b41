package core

import (
	"fmt"
	"math/bits"

	"repro/internal/sg"
)

// checkMCFast is the full check shrink ran on every literal drop before
// dropKeepsCover: whether m, which must cover every region of t, also
// meets conditions (2) and (3) on the whole graph. It is kept as the
// reference dropKeepsCover's verdicts are compared against.
func (a *Analyzer) checkMCFast(t *target, m mask) bool {
	return a.firstRise(t, m) < 0 && a.outside(t.union, m, 0) < 0
}

// shrinkChecked is shrink comparing, at every literal drop it tries,
// dropKeepsCover's verdict with checkMCFast's. It returns the shrunk
// cover, the number of drops compared, kept first, and the first
// disagreement.
func (a *Analyzer) shrinkChecked(t *target, m mask) (mask, [2]int, error) {
	var drops [2]int
	for {
		dropped := false
		for l := m.care; l != 0; l &= l - 1 {
			lit := l & -l
			got, want := a.dropKeepsCover(t, m, lit), a.checkMCFast(t, m.drop(lit))
			if got {
				drops[0]++
			} else {
				drops[1]++
			}
			if got != want {
				return m, drops, fmt.Errorf("dropping literal %d of %s: dropKeepsCover %v, full check %v",
					bits.TrailingZeros64(lit), m.toCube(a.G.NumSignals()), got, want)
			}
			if got {
				m = m.drop(lit)
				dropped = true
			}
		}
		if !dropped {
			return m, drops, nil
		}
	}
}

// ShrinkDrops runs shrink's literal drops on every target of a's graph
// that shrink can meet, comparing each verdict of dropKeepsCover with
// the full check's: the cover FindMC finds for every non-input
// excitation region, and the shared cover of every group
// groupSameFunction may try (a direction's regions, and its failed
// ones), whether or not the group is needed. It also checks that
// shrink returns what the compared walk does. It returns the number of
// drops compared, kept and rejected.
func ShrinkDrops(a *Analyzer) (kept, rejected int, err error) {
	walk := func(t *target, found mask) error {
		got, drops, err := a.shrinkChecked(t, found)
		kept += drops[0]
		rejected += drops[1]
		if err != nil {
			return err
		}
		if want := a.shrink(t, found); got != want {
			return fmt.Errorf("shrink returned %s, the compared walk %s",
				want.toCube(a.G.NumSignals()), got.toCube(a.G.NumSignals()))
		}
		return nil
	}
	for sig := range a.G.Signals {
		if a.G.Input[sig] {
			continue
		}
		regs := a.regs(sig)
		failed := make([]bool, len(regs.ER))
		for i, er := range regs.ER {
			t := targetOf(er, regs.CFR(i))
			found, ok := a.search(&t, a.coverMask(er))
			failed[i] = !ok
			if ok {
				if err := walk(&t, found); err != nil {
					return kept, rejected, fmt.Errorf("%s: %v", a.G.ERLabel(er), err)
				}
			}
		}
		for _, dir := range []sg.Dir{sg.Plus, sg.Minus} {
			for _, failedOnly := range []bool{false, true} {
				in := func(i int) bool { return regs.ER[i].Dir == dir && (!failedOnly || failed[i]) }
				var sup mask
				members := 0
				for i, er := range regs.ER {
					if in(i) {
						if m := a.coverMask(er); members == 0 {
							sup = m
						} else {
							sup = sup.supercube(m)
						}
						members++
					}
				}
				if members < 2 {
					continue
				}
				t := a.groupTarget(regs, in)
				if found, ok := a.search(&t, sup); ok {
					if err := walk(&t, found); err != nil {
						return kept, rejected, fmt.Errorf("%s%s group: %v", a.G.Signals[sig], dir, err)
					}
				}
			}
		}
	}
	return kept, rejected, nil
}
