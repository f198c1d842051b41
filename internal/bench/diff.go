// Benchdiff: a dependency-free, benchstat-flavoured comparator over
// two BENCH_table1.json reports. The methodology, in order of the
// decisions that matter:
//
//   - Min-of-runs. testing.Benchmark already averages within a run, but
//     scheduler noise between runs is one-sided — interference only
//     ever makes a benchmark slower. The minimum across repeated runs
//     is therefore the best available estimate of the true cost, and
//     both sides of a diff should be min-reduced before comparing.
//   - Noise floor. Relative deltas below the noise threshold are
//     reported but never gated on; sub-threshold jitter on
//     microsecond-scale stages would otherwise flap the CI gate.
//   - Per-stage budgets. A single global budget either strangles the
//     stable stages or waives the volatile ones. Each stage gets a
//     relative wall-time budget (falling back to the global one), and
//     allocs/op — machine-independent, deterministic for this
//     pipeline — gets its own much tighter budget.
//   - Fingerprint refusal. Wall-clock numbers from different machines
//     are not commensurable. Unless explicitly overridden, a diff
//     across Go versions, CPU models or GOGC settings refuses to run
//     rather than report nonsense.
//   - GOMAXPROCS refusal. The analyze and repair stages size their
//     worker pools from GOMAXPROCS, so even allocs/op changes with it.
//     A diff across GOMAXPROCS settings refuses to run, override or not.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// DiffOptions tunes the comparison.
type DiffOptions struct {
	// Noise is the relative delta below which a change is jitter, never
	// a verdict (default 0.05 = 5%).
	Noise float64
	// TimeBudget is the allowed relative ns/op growth per stage before
	// the diff fails (default 0.10 = +10%).
	TimeBudget float64
	// StageBudgets overrides TimeBudget per stage name.
	StageBudgets map[string]float64
	// AllocBudget is the allowed relative allocs/op growth (default
	// 0.05). Allocation counts are machine-independent, so this gate
	// stays tight even when the time budgets are loosened for CI.
	AllocBudget float64
	// AllowCrossMachine permits comparing reports whose machine
	// fingerprints differ; the mismatch is still recorded in the result.
	// It never permits differing GOMAXPROCS.
	AllowCrossMachine bool
}

func (o DiffOptions) noise() float64 {
	if o.Noise <= 0 {
		return 0.05
	}
	return o.Noise
}

func (o DiffOptions) timeBudget(stage string) float64 {
	if b, ok := o.StageBudgets[stage]; ok {
		return b
	}
	if o.TimeBudget <= 0 {
		return 0.10
	}
	return o.TimeBudget
}

func (o DiffOptions) allocBudget() float64 {
	if o.AllocBudget <= 0 {
		return 0.05
	}
	return o.AllocBudget
}

// Verdicts of one metric delta, ordered by severity.
const (
	VerdictNoise      = "~"          // within the noise floor
	VerdictImproved   = "improved"   // beyond noise, in the good direction
	VerdictSlower     = "slower"     // beyond noise, within budget
	VerdictRegression = "REGRESSION" // beyond the stage's budget
)

// Delta is one (benchmark, stage, metric) comparison.
type Delta struct {
	Bench   string  `json:"bench"`
	Stage   string  `json:"stage"`
	Metric  string  `json:"metric"` // "time/op" or "allocs/op"
	Old     int64   `json:"old"`
	New     int64   `json:"new"`
	Rel     float64 `json:"rel"` // (new-old)/old
	Budget  float64 `json:"budget"`
	Verdict string  `json:"verdict"`
}

// DiffResult is the full outcome of comparing two reports.
type DiffResult struct {
	OldFingerprint string  `json:"old_fingerprint"`
	NewFingerprint string  `json:"new_fingerprint"`
	CrossMachine   bool    `json:"cross_machine"`
	Deltas         []Delta `json:"deltas"`
	Regressions    int     `json:"regressions"`
}

// Fingerprint identifies the measurement conditions a report's
// wall-clock numbers are only valid under.
func Fingerprint(r *Report) string {
	return strings.Join([]string{r.GoVersion, r.GOOS, r.GOARCH, r.CPUModel, r.GOGC}, "|")
}

// ReadReport loads one BENCH_table1.json.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &r, nil
}

// MinOfRuns reduces repeated reports of the same suite to their
// per-stage minima — the noise-rejecting estimate of true cost. The
// first report supplies metadata and entry order; entries or stages
// missing from later runs keep the values already accumulated.
func MinOfRuns(runs []*Report) *Report {
	if len(runs) == 0 {
		return nil
	}
	out := *runs[0]
	out.Entries = make([]Entry, len(runs[0].Entries))
	for i, e := range runs[0].Entries {
		ne := e
		ne.Stages = make(map[string]Stage, len(e.Stages))
		for k, v := range e.Stages { //reprolint:ordered map copy; output ordering is imposed by Diff
			ne.Stages[k] = v
		}
		out.Entries[i] = ne
	}
	for _, r := range runs[1:] {
		for _, e := range r.Entries {
			tgt := findEntry(out.Entries, e.Name)
			if tgt == nil {
				continue
			}
			for k, v := range e.Stages { //reprolint:ordered per-key min; output ordering is imposed by Diff
				cur, ok := tgt.Stages[k]
				if !ok {
					tgt.Stages[k] = v
					continue
				}
				if v.NsPerOp < cur.NsPerOp {
					cur.NsPerOp = v.NsPerOp
				}
				if v.AllocsPerOp < cur.AllocsPerOp {
					cur.AllocsPerOp = v.AllocsPerOp
				}
				if v.BytesPerOp < cur.BytesPerOp {
					cur.BytesPerOp = v.BytesPerOp
				}
				tgt.Stages[k] = cur
			}
		}
	}
	return &out
}

func findEntry(entries []Entry, name string) *Entry {
	for i := range entries {
		if entries[i].Name == name {
			return &entries[i]
		}
	}
	return nil
}

// Diff compares old against new. It refuses cross-machine comparisons
// unless opts.AllowCrossMachine; in that mode only the allocs/op gate
// keeps its full strength, since allocation counts survive a machine
// change and wall time does not. It always refuses reports taken at
// different GOMAXPROCS: the worker pools of the analyze and repair
// stages follow it, so neither metric survives that change.
func Diff(oldR, newR *Report, opts DiffOptions) (*DiffResult, error) {
	if oldR.GOMAXPROCS != newR.GOMAXPROCS {
		return nil, fmt.Errorf("bench: refusing comparison across GOMAXPROCS (old %d, new %d): the analyze and repair worker pools follow it, so time/op and allocs/op both change; re-run at GOMAXPROCS=%d",
			oldR.GOMAXPROCS, newR.GOMAXPROCS, oldR.GOMAXPROCS)
	}
	res := &DiffResult{
		OldFingerprint: Fingerprint(oldR),
		NewFingerprint: Fingerprint(newR),
	}
	res.CrossMachine = res.OldFingerprint != res.NewFingerprint
	if res.CrossMachine && !opts.AllowCrossMachine {
		return nil, fmt.Errorf("bench: refusing cross-machine comparison:\n  old: %s\n  new: %s\nwall-clock numbers from different machines are not commensurable; re-baseline or pass -allow-cross-machine",
			res.OldFingerprint, res.NewFingerprint)
	}
	noise := opts.noise()
	for _, oe := range oldR.Entries {
		ne := findEntry(newR.Entries, oe.Name)
		if ne == nil {
			continue
		}
		stages := make([]string, 0, len(oe.Stages))
		for k := range oe.Stages { //reprolint:ordered keys are sorted before use
			stages = append(stages, k)
		}
		sort.Strings(stages)
		for _, st := range stages {
			ov, nv := oe.Stages[st], ne.Stages[st]
			if _, ok := ne.Stages[st]; !ok {
				continue
			}
			if d, ok := delta(oe.Name, st, "time/op", ov.NsPerOp, nv.NsPerOp, noise, opts.timeBudget(st)); ok {
				res.Deltas = append(res.Deltas, d)
			}
			if d, ok := delta(oe.Name, st, "allocs/op", ov.AllocsPerOp, nv.AllocsPerOp, noise, opts.allocBudget()); ok {
				res.Deltas = append(res.Deltas, d)
			}
		}
	}
	for _, d := range res.Deltas {
		if d.Verdict == VerdictRegression {
			res.Regressions++
		}
	}
	return res, nil
}

func delta(bench, stage, metric string, oldV, newV int64, noise, budget float64) (Delta, bool) {
	if oldV <= 0 {
		return Delta{}, false
	}
	rel := float64(newV-oldV) / float64(oldV)
	d := Delta{Bench: bench, Stage: stage, Metric: metric, Old: oldV, New: newV, Rel: rel, Budget: budget}
	switch {
	case rel > budget:
		d.Verdict = VerdictRegression
	case rel > noise:
		d.Verdict = VerdictSlower
	case rel < -noise:
		d.Verdict = VerdictImproved
	default:
		d.Verdict = VerdictNoise
	}
	return d, true
}

// WriteTable renders the result benchstat-style. With all=false only
// rows beyond the noise floor are printed (plus a summary line); the
// regression rows always print.
func (r *DiffResult) WriteTable(w io.Writer, all bool) {
	if r.CrossMachine {
		fmt.Fprintf(w, "warning: cross-machine comparison\n  old: %s\n  new: %s\n\n", r.OldFingerprint, r.NewFingerprint)
	}
	fmt.Fprintf(w, "%-12s %-14s %-10s %14s %14s %9s  %s\n",
		"bench", "stage", "metric", "old", "new", "delta", "verdict")
	shown := 0
	for _, d := range r.Deltas {
		if !all && d.Verdict == VerdictNoise {
			continue
		}
		shown++
		fmt.Fprintf(w, "%-12s %-14s %-10s %14s %14s %+8.1f%%  %s\n",
			d.Bench, d.Stage, d.Metric, formatVal(d.Metric, d.Old), formatVal(d.Metric, d.New), d.Rel*100, d.Verdict)
	}
	if shown == 0 {
		fmt.Fprintf(w, "(all %d comparisons within the noise floor)\n", len(r.Deltas))
	}
	fmt.Fprintf(w, "\n%d comparisons, %d regressions\n", len(r.Deltas), r.Regressions)
}

func formatVal(metric string, v int64) string {
	if metric == "time/op" {
		switch {
		case v >= 1_000_000_000:
			return fmt.Sprintf("%.3fs", float64(v)/1e9)
		case v >= 1_000_000:
			return fmt.Sprintf("%.2fms", float64(v)/1e6)
		case v >= 1_000:
			return fmt.Sprintf("%.1fµs", float64(v)/1e3)
		}
		return fmt.Sprintf("%dns", v)
	}
	return fmt.Sprintf("%d", v)
}
