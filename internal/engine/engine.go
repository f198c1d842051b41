// Package engine abstracts the pipeline's analysis core behind a
// pluggable interface: reachability, region decomposition and
// existence-only Monotonous Cover checks, answered either by the
// explicit engine (enumerate the state graph, scan per state) or the
// symbolic engine (BDD fixpoints over marking sets, never materializing
// a state). The explicit engine is the pinned differential reference:
// on any spec both engines can finish, their analyses must be
// identical. The symbolic engine exists for the specs the explicit one
// cannot finish — state spaces past the exploration limit.
package engine

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stg"
)

// Engine is a pluggable analysis core.
type Engine interface {
	Name() string
	Analyze(n *stg.STG) (*Analysis, error)
}

// Options configures an engine.
type Options struct {
	// StateLimit bounds explicit exploration (0 = stg.DefaultStateLimit).
	StateLimit int
	// Fingerprint enumerates every region's states into marking
	// fingerprints. Differential tests need it; on large state spaces it
	// defeats the point of the symbolic engine, so it is opt-in.
	Fingerprint bool
	// AutoThreshold is the state count above which the auto engine picks
	// the symbolic core (0 = DefaultAutoThreshold).
	AutoThreshold int
}

// DefaultAutoThreshold is the estimated state count at which auto
// switches from the explicit to the symbolic engine. Well under the
// explicit exploration limit: past this size the explicit engine still
// works but enumerating states stops being the cheaper option.
const DefaultAutoThreshold = 1 << 16

func (o Options) stateLimit() int {
	if o.StateLimit == 0 {
		return stg.DefaultStateLimit
	}
	return o.StateLimit
}

func (o Options) autoThreshold() int {
	if o.AutoThreshold == 0 {
		return DefaultAutoThreshold
	}
	return o.AutoThreshold
}

// Region is one excitation or quiescent region in engine-independent
// form: its states as sorted marking fingerprints.
type Region struct {
	Kind     string   // "ER" or "QR"
	Dir      string   // "+" or "-"
	Markings []string // sorted, one fingerprint per state; nil without Fingerprint
}

// Analysis is the engine-independent result of analyzing a
// specification. Two engines agree on a spec exactly when their
// Analyses are deeply equal.
type Analysis struct {
	Engine string // engine that produced the analysis
	States uint64 // reachable markings
	Unsafe bool   // net is not 1-safe (analysis stops at the verdict)
	// Regions maps each signal to its region decomposition, canonically
	// sorted. Populated only with Options.Fingerprint.
	Regions map[string][]Region
	// MCUnresolved lists one "+name"/"-name" entry per excitation region
	// of a non-input signal that has no private monotonous cover —
	// the existence-only question repair asks. Sorted; duplicates mean
	// several regions of the same transition are unresolved.
	MCUnresolved []string
}

// New returns the named engine: "explicit", "symbolic" or "auto".
func New(name string, opts Options) (Engine, error) {
	switch name {
	case "explicit":
		return &Explicit{Opts: opts}, nil
	case "symbolic":
		return &Symbolic{Opts: opts}, nil
	case "auto":
		return &Auto{Opts: opts}, nil
	}
	return nil, fmt.Errorf("engine: unknown engine %q (want explicit, symbolic or auto)", name)
}

// unsafeVerdict recognizes the 1-safety failure both engines report.
func unsafeVerdict(err error) bool {
	return err != nil && strings.Contains(err.Error(), "not 1-safe")
}

// IsStateLimit reports whether err is the explicit engine hitting its
// exploration bound — the signal the caller should retry symbolically.
func IsStateLimit(err error) bool {
	return err != nil && strings.Contains(err.Error(), "state limit")
}

// fpMarking renders a place-indexed marking as a canonical fingerprint:
// the marked place indices, dot-joined.
func fpMarking(row []bool) string {
	var b strings.Builder
	for p, on := range row {
		if on {
			if b.Len() > 0 {
				b.WriteByte('.')
			}
			fmt.Fprintf(&b, "%d", p)
		}
	}
	return b.String()
}

// canonRegions sorts a signal's regions into the engine-independent
// order: kind, then direction, then smallest fingerprint.
func canonRegions(rs []Region) []Region {
	for i := range rs {
		sort.Strings(rs[i].Markings)
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Kind != rs[j].Kind {
			return rs[i].Kind < rs[j].Kind
		}
		if rs[i].Dir != rs[j].Dir {
			return rs[i].Dir < rs[j].Dir
		}
		a, b := "", ""
		if len(rs[i].Markings) > 0 {
			a = rs[i].Markings[0]
		}
		if len(rs[j].Markings) > 0 {
			b = rs[j].Markings[0]
		}
		return a < b
	})
	return rs
}

// Explicit is the enumerate-and-scan engine: build the state graph,
// decompose regions over state ids, answer MC by per-state scans. It is
// the differential reference for every other engine.
type Explicit struct {
	Opts Options
}

// Name implements Engine.
func (e *Explicit) Name() string { return "explicit" }

// Analyze implements Engine.
func (e *Explicit) Analyze(n *stg.STG) (*Analysis, error) {
	defer obs.Start("engine.explicit", obs.A("spec", n.Name)).End()
	g, err := stg.BuildSGLimit(n, e.Opts.stateLimit())
	if unsafeVerdict(err) {
		return &Analysis{Engine: "explicit", Unsafe: true}, nil
	}
	if err != nil {
		return nil, err
	}
	res := &Analysis{Engine: "explicit", States: uint64(g.NumStates())}
	var rows [][]bool
	if e.Opts.Fingerprint {
		if rows, err = stg.ReachableMarkings(n, e.Opts.stateLimit()); err != nil {
			return nil, err
		}
		res.Regions = map[string][]Region{}
	}
	fp := func(states []int) []string {
		out := make([]string, len(states))
		for i, s := range states {
			out[i] = fpMarking(rows[s])
		}
		return out
	}
	a := core.NewAnalyzer(g)
	for sig := range g.Signals {
		regs := a.Regs[sig]
		if e.Opts.Fingerprint {
			var rs []Region
			for _, er := range regs.ER {
				rs = append(rs, Region{Kind: "ER", Dir: er.Dir.String(), Markings: fp(er.States)})
			}
			for _, qr := range regs.QR {
				rs = append(rs, Region{Kind: "QR", Dir: qr.Dir.String(), Markings: fp(qr.States)})
			}
			res.Regions[g.Signals[sig]] = canonRegions(rs)
		}
		if g.Input[sig] {
			continue
		}
		for _, er := range regs.ER {
			if _, v := a.FindMC(er); v != nil {
				res.MCUnresolved = append(res.MCUnresolved, er.Dir.String()+g.Signals[sig])
			}
		}
	}
	sort.Strings(res.MCUnresolved)
	return res, nil
}

// Symbolic is the BDD engine: reachability as a symbolic fixpoint over
// marking sets, regions as connected components of BDD sets, MC as
// existence-only set operations. It never enumerates states except to
// fingerprint regions on request.
type Symbolic struct {
	Opts Options
}

// Name implements Engine.
func (s *Symbolic) Name() string { return "symbolic" }

// Analyze implements Engine.
func (s *Symbolic) Analyze(n *stg.STG) (*Analysis, error) {
	defer obs.Start("engine.symbolic", obs.A("spec", n.Name)).End()
	sp, err := stg.NewSymbolicSpace(n)
	if unsafeVerdict(err) {
		return &Analysis{Engine: "symbolic", Unsafe: true}, nil
	}
	if err != nil {
		return nil, err
	}
	if err := sp.ComputeValues(); err != nil {
		return nil, err
	}
	res := &Analysis{Engine: "symbolic", States: sp.States()}
	if s.Opts.Fingerprint {
		res.Regions = map[string][]Region{}
	}
	for sig := 0; sig < sp.NumSignals(); sig++ {
		regs := core.SymRegionsOf(sp, sig)
		if s.Opts.Fingerprint {
			var rs []Region
			for _, er := range regs.ER {
				rs = append(rs, Region{Kind: "ER", Dir: er.Dir.String(), Markings: s.fp(sp, er.Set)})
			}
			for _, qr := range regs.QR {
				rs = append(rs, Region{Kind: "QR", Dir: qr.Dir.String(), Markings: s.fp(sp, qr.Set)})
			}
			res.Regions[sp.SignalName(sig)] = canonRegions(rs)
		}
		if sp.IsInput(sig) {
			continue
		}
		for i, er := range regs.ER {
			if core.SymMCViolation(sp, regs, i) {
				res.MCUnresolved = append(res.MCUnresolved, er.Dir.String()+sp.SignalName(sig))
			}
		}
	}
	sort.Strings(res.MCUnresolved)
	// The analysis drove the whole region/MC workload through the
	// space's manager; publish its cache tallies under a scope apart
	// from the reachability fixpoint's.
	sp.Manager().PublishObs("engine_analyze")
	return res, nil
}

// fp enumerates a marking-set BDD into sorted fingerprints. StateVars
// indexes variables by place and ForEachSat indexes assignments by
// caller position, so assignment position p is place p even when the
// space permuted the underlying variable order.
func (s *Symbolic) fp(sp *stg.SymbolicSpace, set int) []string {
	var out []string
	sp.Manager().ForEachSat(set, sp.StateVars(), func(assign []bool) bool {
		out = append(out, fpMarking(assign))
		return true
	})
	sort.Strings(out)
	return out
}

// Auto picks an engine per spec: explicit while a bounded probe
// exploration proves the state space small, symbolic as soon as the
// probe overflows. The produced Analysis records which engine ran.
type Auto struct {
	Opts Options
}

// Name implements Engine.
func (a *Auto) Name() string { return "auto" }

// Analyze implements Engine.
func (a *Auto) Analyze(n *stg.STG) (*Analysis, error) {
	est, exact := EstimateStates(n, a.Opts.autoThreshold())
	if exact && est <= uint64(a.Opts.autoThreshold()) {
		return (&Explicit{Opts: a.Opts}).Analyze(n)
	}
	return (&Symbolic{Opts: a.Opts}).Analyze(n)
}

// EstimateStates probes the explicit state count by exploring up to
// probe states. It returns the exact count when exploration finishes
// (exact = true), and (probe, false) when the space is at least that
// large. Errors other than the probe limit — unsafe nets, malformed
// specs — report as exact so auto routes them to the explicit engine,
// which reproduces the precise verdict cheaply.
func EstimateStates(n *stg.STG, probe int) (uint64, bool) {
	rows, err := stg.ReachableMarkings(n, probe)
	if IsStateLimit(err) {
		return uint64(probe), false
	}
	if err != nil {
		return 0, true
	}
	return uint64(len(rows)), true
}

// The symbolic engine feeds stg.SymbolicSpace straight into core's
// symbolic MC machinery; keep the contract visible at compile time.
var _ core.SymSpace = (*stg.SymbolicSpace)(nil)
