// Command benchdiff compares two BENCH_table1.json reports and gates
// on regressions — a dependency-free benchstat for this repo's
// per-stage pipeline benchmarks.
//
//	benchdiff [flags] old.json[,old2.json,...] new.json[,new2.json,...]
//
// Comma-separated lists on either side are min-reduced before the
// comparison (run the suite several times; the per-stage minimum is
// the noise-rejecting estimate). Exit status: 0 when no stage exceeds
// its budget, 1 on at least one regression, 2 on usage or
// incomparable-report errors (including a cross-machine fingerprint
// mismatch without -allow-cross-machine, and reports taken at
// different GOMAXPROCS, which no flag overrides).
//
// With -loadgen the two arguments are bench.LoadReport files from
// cmd/loadgen instead, and the gate is each shared phase's p95 latency
// under the same noise/budget discipline — per-phase budgets come from
// -stage-budget entries named load_cold, load_warm, load_mixed. This
// is how warm-cache serving latency regressions fail CI.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
)

func main() {
	var (
		noise       = flag.Float64("noise", 0.05, "relative delta treated as jitter, never a verdict")
		budget      = flag.Float64("budget", 0.10, "default relative time/op growth allowed per stage")
		stageBudget = flag.String("stage-budget", "", "per-stage time budgets overriding -budget, e.g. repair=0.25,verify=0.15")
		allocBudget = flag.Float64("alloc-budget", 0.05, "relative allocs/op growth allowed (machine-independent gate)")
		allowCross  = flag.Bool("allow-cross-machine", false, "compare despite differing machine fingerprints")
		all         = flag.Bool("all", false, "print within-noise rows too")
		jsonOut     = flag.Bool("json", false, "emit the full diff result as JSON instead of a table")
		loadgen     = flag.Bool("loadgen", false, "compare bench.LoadReport files (phase p95 gate) instead of stage reports")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: benchdiff [flags] old.json[,...] new.json[,...]\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}

	opts := bench.DiffOptions{
		Noise:             *noise,
		TimeBudget:        *budget,
		AllocBudget:       *allocBudget,
		AllowCrossMachine: *allowCross,
	}
	var err error
	if opts.StageBudgets, err = parseStageBudgets(*stageBudget); err != nil {
		fatal(err)
	}

	if *loadgen {
		diffLoad(flag.Arg(0), flag.Arg(1), opts, *jsonOut)
		return
	}

	oldR, err := loadMin(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	newR, err := loadMin(flag.Arg(1))
	if err != nil {
		fatal(err)
	}

	res, err := bench.Diff(oldR, newR, opts)
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		if err := writeJSON(os.Stdout, res); err != nil {
			fatal(err)
		}
	} else {
		res.WriteTable(os.Stdout, *all)
	}
	if res.Regressions > 0 {
		os.Exit(1)
	}
}

// diffLoad runs the -loadgen comparison and exits with the gate's
// status.
func diffLoad(oldPath, newPath string, opts bench.DiffOptions, jsonOut bool) {
	oldR, err := bench.ReadLoadReport(oldPath)
	if err != nil {
		fatal(err)
	}
	newR, err := bench.ReadLoadReport(newPath)
	if err != nil {
		fatal(err)
	}
	res, err := bench.LoadDiff(oldR, newR, opts)
	if err != nil {
		fatal(err)
	}
	if jsonOut {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", data)
	} else {
		res.WriteTable(os.Stdout)
	}
	if res.Regressions > 0 {
		os.Exit(1)
	}
	os.Exit(0)
}

// loadMin reads a comma-separated report list and min-reduces it.
func loadMin(arg string) (*bench.Report, error) {
	var runs []*bench.Report
	for _, path := range strings.Split(arg, ",") {
		if path == "" {
			continue
		}
		r, err := bench.ReadReport(path)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("benchdiff: no reports in %q", arg)
	}
	return bench.MinOfRuns(runs), nil
}

func parseStageBudgets(spec string) (map[string]float64, error) {
	if spec == "" {
		return nil, nil
	}
	out := map[string]float64{}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("benchdiff: bad -stage-budget entry %q (want stage=0.25)", kv)
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, fmt.Errorf("benchdiff: bad budget in %q: %v", kv, err)
		}
		out[strings.TrimSpace(k)] = f
	}
	return out, nil
}

func writeJSON(w *os.File, res *bench.DiffResult) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
