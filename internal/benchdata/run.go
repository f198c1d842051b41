package benchdata

import (
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/synth"
)

// Table1Result is the outcome of synthesizing one Table-1 benchmark.
type Table1Result struct {
	Entry  Table1Entry
	Report *synth.Report
	Err    error
}

// RunTable1 synthesizes every Table-1 benchmark and returns the results
// in table order. Benchmarks run concurrently on a bounded worker pool
// (workers = 0 means GOMAXPROCS, 1 means sequential); each individual
// synthesis additionally inherits opts.Parallel for its repair's
// candidate scoring. Results land in index-addressed slots, so the
// output order — and every report in it — is independent of
// scheduling.
func RunTable1(opts synth.Options, workers int) []Table1Result {
	out := make([]Table1Result, len(Table1))
	par.ForEachHook(len(Table1), workers, func(i int) {
		e := Table1[i]
		rep, err := synth.FromSTG(e.STG(), opts)
		out[i] = Table1Result{Entry: e, Report: rep, Err: err}
	}, obs.TaskHook("benchdata.table1"))
	return out
}
