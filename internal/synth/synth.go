// Package synth is the end-to-end synthesis pipeline of the paper:
//
//	STG → state graph → behavioural checks → Monotonous Cover analysis
//	    → (if needed) SAT-driven state-signal insertion (Section V)
//	    → per-region MC cubes, optionally share-optimized (Section VI)
//	    → standard C- or RS-implementation (Section III)
//	    → speed-independence verification (Theorem 3, checked
//	      empirically on every synthesized circuit).
package synth

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/sg"
	"repro/internal/stg"
	"repro/internal/verify"
)

// Options configures a synthesis run.
type Options struct {
	// RS selects the standard RS-implementation instead of the standard
	// C-implementation.
	RS bool
	// Share enables the Section-VI generalized-MC gate sharing.
	Share bool
	// Repair configures the state-signal insertion loop.
	Repair encode.Options
	// SkipVerify skips the final speed-independence verification.
	SkipVerify bool
	// Parallel seeds Repair.Workers when that is unset (0 = GOMAXPROCS,
	// 1 = sequential).
	Parallel int
}

// Report is the complete outcome of one synthesis run.
type Report struct {
	Name  string
	Spec  *sg.Graph // the input specification
	Final *sg.Graph // after state-signal insertion (== Spec when none)

	Props        sg.PropertyReport
	AddedSignals []string
	MC           *core.Report
	SharedSaved  int // AND terms saved by Section-VI sharing
	Netlist      *netlist.Netlist
	Stats        netlist.Stats
	Verify       *verify.Result

	// Phase durations.
	AnalyzeTime time.Duration
	RepairTime  time.Duration
	CoverTime   time.Duration
	VerifyTime  time.Duration
}

// OK reports whether synthesis succeeded end to end (including
// verification when it ran).
func (r *Report) OK() bool {
	if r.MC == nil || !r.MC.Satisfied() || r.Netlist == nil {
		return false
	}
	return r.Verify == nil || r.Verify.OK()
}

// Summary renders a human-readable synthesis report.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", r.Name)
	fmt.Fprintf(&b, "spec: %d signals, %d states\n", r.Spec.NumSignals(), r.Spec.NumStates())
	fmt.Fprintf(&b, "%s\n", indent(r.Props.String()))
	if len(r.AddedSignals) > 0 {
		fmt.Fprintf(&b, "inserted state signals: %s (final graph: %d states)\n",
			strings.Join(r.AddedSignals, ", "), r.Final.NumStates())
	} else {
		fmt.Fprintf(&b, "inserted state signals: none\n")
	}
	if r.MC != nil {
		fmt.Fprintf(&b, "MC covers:\n%s", indent(r.MC.String()))
	}
	if r.SharedSaved > 0 {
		fmt.Fprintf(&b, "gate sharing saved %d AND terms\n", r.SharedSaved)
	}
	if r.Netlist != nil {
		fmt.Fprintf(&b, "netlist (%s):\n%s", r.Stats, indent(r.Netlist.String()))
	}
	if r.Verify != nil {
		fmt.Fprintf(&b, "verification: %s\n", r.Verify)
	}
	fmt.Fprintf(&b, "times: analyze=%v repair=%v covers=%v verify=%v\n",
		r.AnalyzeTime.Round(time.Microsecond), r.RepairTime.Round(time.Microsecond),
		r.CoverTime.Round(time.Microsecond), r.VerifyTime.Round(time.Microsecond))
	return b.String()
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return "  " + strings.Join(lines, "\n  ") + "\n"
}

// now and since funnel the pipeline's wall-clock reads through one
// audited point: phase durations land only in the Report timing fields,
// never in the synthesized artifacts, so the reads cannot break the
// byte-identical-output promise reprolint enforces on this package.
func now() time.Time {
	return time.Now() //reprolint:ordered phase timing lands only in Report duration fields, never in synthesized output
}

func since(t time.Time) time.Duration {
	return time.Since(t) //reprolint:ordered phase timing lands only in Report duration fields, never in synthesized output
}

// FromSTGSource parses an STG in .g syntax and synthesizes it.
func FromSTGSource(src string, opts Options) (*Report, error) {
	net, err := stg.Parse(src)
	if err != nil {
		return nil, err
	}
	return FromSTG(net, opts)
}

// FromSTG builds the state graph of the net and synthesizes it.
func FromSTG(net *stg.STG, opts Options) (*Report, error) {
	var g *sg.Graph
	var err error
	Labeled("reach", func() { g, err = stg.BuildSG(net) })
	if err != nil {
		return nil, err
	}
	return FromGraph(g, opts)
}

// CoverNetlist is the cover half of the pipeline: it derives the
// per-signal excitation functions from an MC report over the final
// (post-insertion) graph — share-optimized when opts.Share is set —
// and builds the gate-level netlist. It returns the netlist and the
// number of AND terms sharing saved. Benchmarks call it directly to
// time covering apart from the state-signal insertion that precedes
// it.
func CoverNetlist(final *sg.Graph, mc *core.Report, opts Options) (*netlist.Netlist, int, error) {
	fns := map[int]netlist.SR{}
	saved := 0
	if opts.Share {
		shared, n, err := mc.A.ShareOptimize(mc)
		if err != nil {
			return nil, 0, err
		}
		saved = n
		// Walk signals in index order rather than ranging over the map:
		// the copy is order-independent today, but a deterministic walk
		// keeps the loop safe against future side effects for free.
		for sig := range final.Signals {
			if f, ok := shared[sig]; ok {
				fns[sig] = netlist.SR{Set: f.Set, Reset: f.Reset}
			}
		}
	} else {
		for sig := range final.Signals {
			if final.Input[sig] {
				continue
			}
			set, reset, err := mc.ExcitationFunctions(sig)
			if err != nil {
				return nil, 0, err
			}
			fns[sig] = netlist.SR{Set: set, Reset: reset}
		}
	}
	nl, err := netlist.Build(final, fns, netlist.Options{RS: opts.RS, Share: opts.Share})
	if err != nil {
		return nil, 0, err
	}
	return nl, saved, nil
}

// Analysis is the analysis stage's result: the state graph's region
// table, every signal decomposed once, and its property report. Repair
// and, through the MC report, CoverNetlist read the table instead of
// decomposing the graph again. Nothing writes to it after Analyze
// returns, so concurrent stages may share one Analysis.
type Analysis struct {
	Table *sg.RegionTable
	Props sg.PropertyReport
}

// Analyze is the analysis stage: the state graph's region table and
// behavioural property report, the consistency check, and the output
// semi-modularity precondition without which no speed-independent
// implementation exists. An inconsistent graph gets CheckConsistency's
// error and no analysis; the report has already run the check, so it
// runs again only to say why. On the output semi-modularity error
// Analyze still returns the analysis, whose report says why.
func Analyze(g *sg.Graph) (*Analysis, error) {
	t := sg.NewRegionTable(g)
	an := &Analysis{Table: t, Props: t.Check()}
	if !an.Props.Consistent {
		return nil, g.CheckConsistency()
	}
	if !an.Props.OutputSemiModular {
		return an, fmt.Errorf("synth: %s is not output semi-modular; no speed-independent implementation exists", g.Name)
	}
	return an, nil
}

// Repair is the state-signal insertion stage (Section V): encode.Repair
// over the analysis's region table until the MC requirement holds,
// then, on specs of at most 4096 states, the check that insertion
// preserved the specification's visible behaviour (weak bisimulation
// with the inserted signals hidden).
func Repair(an *Analysis, opts encode.Options) (*encode.Result, error) {
	g := an.Table.Idx.G
	fixed, err := encode.RepairTable(an.Table, opts)
	if err != nil {
		return nil, err
	}
	if len(fixed.Added) > 0 && g.NumStates() <= 4096 {
		if err := sg.WeaklyBisimilar(g, fixed.G); err != nil {
			return nil, fmt.Errorf("synth: insertion changed the visible behaviour: %w", err)
		}
	}
	return fixed, nil
}

// Labeled runs f under the runtime/pprof label stage=name. Goroutines
// f starts inherit the label, so a CPU profile of any run, the repair
// scoring workers included, splits by stage with
// `go tool pprof -tagfocus=stage=<name>`. Stages do not nest: f runs
// with stage as its goroutine's only label, and the goroutine carries
// no labels once Labeled returns.
func Labeled(name string, f func()) {
	pprof.Do(context.Background(), pprof.Labels("stage", name), func(context.Context) { f() })
}

// stage runs one FromGraph stage under a top-level obs span and its
// pprof stage label: it reads the clock around run into *dur and
// records the stage's allocation delta on the span. run sets the
// stage's result attributes itself.
func stage(name, spec string, dur *time.Duration, run func(sp *obs.Span) error) error {
	sp := obs.Start(name, obs.A("spec", spec))
	mem := obs.MarkMem()
	t0 := now()
	var err error
	Labeled(name, func() { err = run(sp) })
	*dur = since(t0)
	sp.AttrMemDelta(mem)
	sp.End()
	return err
}

// FromGraph synthesizes a state-graph specification: Analyze, Repair,
// CoverNetlist and verify.Check, each timed into the Report and traced
// as one obs span.
func FromGraph(g *sg.Graph, opts Options) (*Report, error) {
	rep := &Report{Name: g.Name, Spec: g, Final: g}

	var an *Analysis
	err := stage("analyze", g.Name, &rep.AnalyzeTime, func(sp *obs.Span) (err error) {
		sp.SetAttr("states", g.NumStates())
		an, err = Analyze(g)
		if an != nil {
			rep.Props = an.Props
		}
		return err
	})
	if err != nil {
		return rep, err
	}
	obs.Info("analyze done", "spec", g.Name, "states", g.NumStates(), "dur", rep.AnalyzeTime)

	if opts.Repair.Workers == 0 {
		opts.Repair.Workers = opts.Parallel
	}
	err = stage("repair", g.Name, &rep.RepairTime, func(sp *obs.Span) error {
		fixed, err := Repair(an, opts.Repair)
		if err != nil {
			return err
		}
		rep.Final, rep.AddedSignals, rep.MC = fixed.G, fixed.Added, fixed.Report
		sp.SetAttr("added", len(fixed.Added))
		sp.SetAttr("models", fixed.Models)
		return nil
	})
	if err != nil {
		return rep, err
	}
	obs.Info("repair done", "spec", g.Name, "added", len(rep.AddedSignals), "dur", rep.RepairTime)

	err = stage("synth", g.Name, &rep.CoverTime, func(sp *obs.Span) (err error) {
		rep.Netlist, rep.SharedSaved, err = CoverNetlist(rep.Final, rep.MC, opts)
		if err != nil {
			return err
		}
		rep.Stats = rep.Netlist.Stats()
		sp.SetAttr("literals", rep.Stats.Literals)
		return nil
	})
	if err != nil {
		return rep, err
	}
	obs.Info("synth done", "spec", g.Name, "literals", rep.Stats.Literals, "dur", rep.CoverTime)

	if opts.SkipVerify {
		return rep, nil
	}
	err = stage("verify", g.Name, &rep.VerifyTime, func(sp *obs.Span) error {
		rep.Verify = verify.Check(rep.Netlist, rep.Final)
		sp.SetAttr("composed_states", rep.Verify.States)
		sp.SetAttr("ok", rep.Verify.OK())
		if !rep.Verify.OK() {
			return fmt.Errorf("synth: %s: synthesized circuit failed verification:\n%s", g.Name, rep.Verify)
		}
		return nil
	})
	return rep, err
}
