// Command mcsyn synthesizes a speed-independent circuit from a Signal
// Transition Graph using the Monotonous Cover method: it builds the
// state graph, checks the behavioural preconditions, inserts state
// signals via SAT-based state assignment until the MC requirement holds,
// emits the standard C- or RS-implementation, and verifies the result
// hazard-free against the (transformed) specification.
//
// Usage:
//
//	mcsyn [flags] spec.g        synthesize an STG file
//	mcsyn [flags] -bench name   synthesize a built-in Table-1 benchmark
//	mcsyn [flags] -table1       synthesize all nine Table-1 benchmarks
//	mcsyn -list                 list the built-in benchmarks
//
// Flags:
//
//	-rs         emit the standard RS-implementation (default: C-elements)
//	-engine E   what happens on a spec past the explicit state limit:
//	            explicit (default) fails with the limit error; symbolic
//	            and auto print an analysis-only report (reachable states
//	            + existence-only MC check) from the symbolic engine.
//	            Synthesis itself always runs on the explicit graph.
//	-share      enable Section-VI generalized-MC gate sharing
//	-baseline   use the correct-cover baseline instead of MC synthesis
//	-dot        print the final state graph in Graphviz syntax
//	-verilog    print the implementation as structural Verilog
//	-fanin N    map the netlist to a library of AND/OR gates with at
//	            most N inputs; timing obligations the mapping leaves
//	            are validated by simulation
//	-inverters  map pin bubbles to explicit inverter cells (alone or
//	            with -fanin)
//	-quiet      print only the verdict line
//	-parallel N bound the -table1 benchmark sweep and, unless
//	            -repair-workers is set, the repair candidate-scoring
//	            pool (0 = GOMAXPROCS, 1 = sequential)
//	-maxmodels N    bound the SAT models enumerated per conflict/strategy
//	                pair during state-signal insertion (0 = default 128)
//	-repair-workers N  bound the repair candidate-scoring pool
//	                (0 = follow -parallel, 1 = sequential); models come
//	                from one canonical SAT solver, so N never changes
//	                the output
//	-cpuprofile write a CPU profile to the given file (in every mode,
//	            -serve included); samples carry a pprof "stage" label,
//	            so go tool pprof -tagfocus=stage=repair splits them by
//	            pipeline stage
//	-memprofile write a heap profile at exit to the given file
//	-benchjson  benchmark the Table-1 pipeline stages (parse, reach,
//	            analyze, repair, cover, verify) and write a JSON report
//	-benchtime  per-stage measuring time for -benchjson
//
// Service mode (see DESIGN.md §12):
//
//	-serve a        run the synthesis service on address a: POST /synth
//	                (single or batch, ?wait=1 blocks), GET /job/{id}
//	                (?sse=1 streams progress), GET /result/{digest},
//	                /metrics. Stage results are cached content-addressed
//	                and identical concurrent submissions coalesce.
//	-serve-shards N pipeline worker shards (0 = GOMAXPROCS)
//	-serve-queue N  queued jobs beyond running before 429 backpressure
//	                (0 = 2x shards)
//	-serve-cache N  stage-cache entry cap (0 = 1024)
//
// Under -serve, -repair-workers bounds each job's scoring pool, and 0
// means 1 because the shards already run jobs concurrently. -parallel,
// -rs, -share and -maxmodels do not apply: each request sets rs, share
// and maxmodels itself.
//
// SIGINT/SIGTERM drain cleanly in every mode: in-flight server jobs
// finish, the ops plane closes, and profiles/journals flush through the
// same once-only path as a normal exit. A second signal terminates
// immediately.
//
// Observability (see the Observability section of README.md):
//
//	-metrics f  write engine counters in Prometheus text format to f
//	-trace f    write a Chrome trace_event JSON (about:tracing/Perfetto)
//	-report f   write a machine-readable run report (JSON) per spec
//	-journal f  append a JSONL flight-recorder journal: every pipeline
//	            event with provenance (spec/netlist sha-256, config,
//	            per-stage wall and allocation counters)
//	-serve-obs a  serve the live ops plane on address a — /metrics,
//	            /progress (SSE event stream), /trace, /debug/pprof/
//	-v          structured slog progress logging to stderr
//
// All output files — profiles included — are flushed on every exit
// path, error exits included.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/benchdata"
	"repro/internal/engine"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/obs/obshttp"
	"repro/internal/serve"
	"repro/internal/stg"
	"repro/internal/synth"
	"repro/internal/tech"
	"repro/internal/verify"
)

// session owns every output that must be flushed before the process
// exits. os.Exit skips deferred calls, so all exits — fatalf included —
// are routed through exit(), which flushes first; the historical bug
// where `defer pprof.StopCPUProfile()` never ran under fatalf left
// truncated CPU profiles behind.
type session struct {
	once sync.Once

	cpu                                *os.File // active CPU profile, nil when off
	memPath                            string
	metricsPath, tracePath, reportPath string

	o       *obs.Observer
	reports []*obs.RunReport
	jw      *journal.Writer
	srv     *obshttp.Server
	synsrv  *serve.Server
}

var ses session

// flush writes every pending output exactly once. Failures are reported
// but do not abort the remaining writers.
func (s *session) flush() {
	s.once.Do(func() {
		// The synthesis service drains first: in-flight jobs finish and
		// publish their journal run_end events while the journal writer
		// below is still open.
		if s.synsrv != nil {
			s.synsrv.Close()
		}
		if s.cpu != nil {
			pprof.StopCPUProfile()
			s.cpu.Close()
		}
		if s.memPath != "" {
			if f, err := os.Create(s.memPath); err != nil {
				fmt.Fprintf(os.Stderr, "mcsyn: memprofile: %v\n", err)
			} else {
				runtime.GC()
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintf(os.Stderr, "mcsyn: memprofile: %v\n", err)
				}
				f.Close()
			}
		}
		if s.o == nil {
			return
		}
		if s.metricsPath != "" {
			if f, err := os.Create(s.metricsPath); err != nil {
				fmt.Fprintf(os.Stderr, "mcsyn: metrics: %v\n", err)
			} else {
				if err := s.o.Metrics.WritePrometheus(f); err != nil {
					fmt.Fprintf(os.Stderr, "mcsyn: metrics: %v\n", err)
				}
				f.Close()
			}
		}
		if s.tracePath != "" {
			if f, err := os.Create(s.tracePath); err != nil {
				fmt.Fprintf(os.Stderr, "mcsyn: trace: %v\n", err)
			} else {
				if err := s.o.Tracer.WriteChromeTrace(f); err != nil {
					fmt.Fprintf(os.Stderr, "mcsyn: trace: %v\n", err)
				}
				f.Close()
			}
		}
		if s.reportPath != "" && len(s.reports) > 0 {
			var v any = s.reports
			if len(s.reports) == 1 {
				v = s.reports[0]
			}
			if err := obs.WriteJSON(s.reportPath, v); err != nil {
				fmt.Fprintf(os.Stderr, "mcsyn: report: %v\n", err)
			}
		}
		if s.jw != nil {
			if err := s.jw.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "mcsyn: journal: %v\n", err)
			}
		}
		if s.srv != nil {
			s.srv.Close()
		}
	})
}

// begin snapshots the observer ahead of one spec's pipeline — before
// the spec is even parsed, so the parse span lands in the report; the
// returned finish builds the run report from everything recorded since.
func (s *session) begin() (finish func(spec string, fill func(r *obs.RunReport))) {
	if s.o == nil {
		return func(string, func(r *obs.RunReport)) {}
	}
	mark := s.o.Tracer.Mark()
	base := s.o.Metrics.Snapshot()
	return func(spec string, fill func(r *obs.RunReport)) {
		r := s.o.BuildRunReport(spec, mark, base)
		if fill != nil {
			fill(r)
		}
		s.reports = append(s.reports, r)
	}
}

// fillSynth copies the verdict fields of a synthesis report.
func fillSynth(r *obs.RunReport, rep *synth.Report, err error) {
	if rep == nil {
		r.Verdict = "error: " + err.Error()
		return
	}
	r.OK = rep.OK()
	r.AddedSignals = rep.AddedSignals
	r.Literals = rep.Stats.Literals
	if rep.Spec != nil {
		r.SpecStates = rep.Spec.NumStates()
	}
	if rep.Final != nil {
		r.FinalStates = rep.Final.NumStates()
	}
	switch {
	case rep.Verify != nil:
		r.Verdict = rep.Verify.String()
		r.ComposedStates = rep.Verify.States
	case err != nil:
		r.Verdict = "error: " + err.Error()
	default:
		r.Verdict = "synthesized (verification skipped)"
	}
	if err != nil {
		r.OK = false
	}
}

// runConfig snapshots the flags that shape one synthesis run for the
// journal's run_start record. Engine is the -engine flag as given.
func runConfig(engineName string, opts synth.Options) journal.RunConfig {
	return journal.RunConfig{
		Engine:        engineName,
		RepairWorkers: opts.Repair.Workers,
		MaxModels:     opts.Repair.MaxModels,
		Parallel:      opts.Parallel,
		RS:            opts.RS,
		Share:         opts.Share,
	}
}

// journalRunEnd publishes one synthesis outcome's digests to the
// journal sinks (a no-op without sinks).
func journalRunEnd(spec string, rep *synth.Report, err error) {
	if !obs.SinksEnabled() {
		return
	}
	var text, verdict string
	var added int
	var ok bool
	if rep != nil {
		if rep.Netlist != nil {
			text = rep.Netlist.String()
		}
		added = len(rep.AddedSignals)
		ok = rep.OK()
		if rep.Verify != nil {
			verdict = rep.Verify.String()
		} else {
			verdict = "synthesized (verification skipped)"
		}
	}
	if err != nil {
		verdict = "error: " + err.Error()
		ok = false
	}
	journal.PublishRunEnd(spec, text, added, verdict, ok)
}

func main() {
	rs := flag.Bool("rs", false, "emit the standard RS-implementation")
	share := flag.Bool("share", false, "enable generalized-MC gate sharing (Section VI)")
	useBaseline := flag.Bool("baseline", false, "use the correct-cover baseline (no MC repair)")
	benchName := flag.String("bench", "", "synthesize a built-in Table-1 benchmark")
	table1 := flag.Bool("table1", false, "synthesize all nine Table-1 benchmarks")
	list := flag.Bool("list", false, "list built-in benchmarks")
	dot := flag.Bool("dot", false, "print the final state graph in Graphviz syntax")
	quiet := flag.Bool("quiet", false, "print only the verdict line")
	fanin := flag.Int("fanin", 0, "map to a library with this AND/OR fan-in bound (0 = none)")
	inverters := flag.Bool("inverters", false, "map pin bubbles to explicit inverter cells")
	verilog := flag.Bool("verilog", false, "print the implementation as structural Verilog")
	engineName := flag.String("engine", "explicit", "past the explicit state limit: explicit fails, symbolic or auto print a symbolic analysis-only report")
	parallel := flag.Int("parallel", 0, "-table1 sweep pool size, and the repair-scoring pool's unless -repair-workers is set (0 = GOMAXPROCS, 1 = sequential; unused by -serve)")
	maxModels := flag.Int("maxmodels", 0, "max SAT models per conflict/strategy pair in repair (0 = default 128)")
	repairWorkers := flag.Int("repair-workers", 0, "repair candidate-scoring pool size (0 = follow -parallel, or 1 per job under -serve; 1 = sequential)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	benchjson := flag.String("benchjson", "", "benchmark the Table-1 pipeline stages and write the JSON report to this file")
	benchtime := flag.Duration("benchtime", 0, "per-stage measuring time for -benchjson (0 = testing default of 1s)")
	metricsOut := flag.String("metrics", "", "write engine metrics in Prometheus text format to this file at exit")
	journalOut := flag.String("journal", "", "append a JSONL flight-recorder journal of every pipeline event to this file")
	serveObs := flag.String("serve-obs", "", "serve the live ops plane (/metrics, /progress SSE, /trace, /debug/pprof) on this address")
	serveAddr := flag.String("serve", "", "run the synthesis service on this address (POST /synth, GET /job/{id}, GET /result/{digest}, /metrics)")
	serveShards := flag.Int("serve-shards", 0, "synthesis service pipeline shards (0 = GOMAXPROCS)")
	serveQueue := flag.Int("serve-queue", 0, "synthesis service queued jobs beyond running before 429 backpressure (0 = 2x shards)")
	serveCache := flag.Int("serve-cache", 0, "synthesis service stage-cache entry cap (0 = 1024)")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON trace to this file at exit")
	reportOut := flag.String("report", "", "write a machine-readable JSON run report to this file at exit")
	verbose := flag.Bool("v", false, "structured progress logging (slog) to stderr")
	flag.Parse()

	ses.memPath = *memprofile
	ses.metricsPath, ses.tracePath, ses.reportPath = *metricsOut, *traceOut, *reportOut
	if *metricsOut != "" || *traceOut != "" || *reportOut != "" || *verbose ||
		*journalOut != "" || *serveObs != "" || *serveAddr != "" {
		var lg *slog.Logger
		if *verbose {
			lg = slog.New(slog.NewTextHandler(os.Stderr, nil))
		}
		ses.o = obs.New(lg)
		obs.Enable(ses.o)
	}
	defer ses.flush()

	// Trap SIGINT/SIGTERM in every mode so the service drains and the
	// once-only flush (profiles, journal, reports) runs before exit —
	// a Ctrl-C previously truncated the journal mid-record, silently
	// because of the Writer's sticky-error path. A second signal gets
	// the default immediate termination.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() { //reprolint:go signal watcher, not a pipeline fan-out; lives for the whole process
		sig := <-sigc
		signal.Stop(sigc)
		fmt.Fprintf(os.Stderr, "mcsyn: received %v; draining and flushing (send again to force quit)\n", sig)
		exit(130)
	}()

	if *journalOut != "" {
		jw, err := journal.Create(*journalOut)
		if err != nil {
			fatalf("journal: %v", err)
		}
		ses.jw = jw
		ses.o.AddSink(jw)
	}
	if *serveObs != "" {
		srv := obshttp.New(ses.o)
		addr, err := srv.Start(*serveObs)
		if err != nil {
			fatalf("serve-obs: %v", err)
		}
		ses.srv = srv
		ses.o.AddSink(srv)
		fmt.Fprintf(os.Stderr, "mcsyn: ops plane on http://%s (/metrics /progress /trace /debug/pprof)\n", addr)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatalf("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("%v", err)
		}
		ses.cpu = f
	}

	if *serveAddr != "" {
		sv := serve.New(serve.Options{
			Shards:       *serveShards,
			Queue:        *serveQueue,
			CacheEntries: *serveCache,
			JobWorkers:   *repairWorkers,
			Obs:          ses.o, // nil falls back to a private registry
		})
		addr, err := sv.Start(*serveAddr)
		if err != nil {
			fatalf("serve: %v", err)
		}
		ses.synsrv = sv
		// Route pipeline events (repair rounds, run_start/run_end) to
		// per-job SSE feeds alongside the journal and ops-plane sinks.
		ses.o.AddSink(sv)
		fmt.Fprintf(os.Stderr, "mcsyn: synthesis service on http://%s (POST /synth, GET /job/{id}, GET /result/{digest}, /metrics)\n", addr)
		select {} // serve until a signal drains us through exit()
	}

	if *list {
		for _, e := range benchdata.Table1 {
			fmt.Printf("%-16s %d inputs, %d outputs (paper: %d added signals)\n",
				e.Name, e.Inputs, e.Outputs, e.PaperAdded)
		}
		return
	}

	if *benchjson != "" {
		rep, err := bench.RunTable1(*benchtime)
		if err != nil {
			fatalf("%v", err)
		}
		if err := rep.WriteFile(*benchjson); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("wrote %s (%d benchmarks × %d stages, benchtime %s)\n",
			*benchjson, len(rep.Entries), len(rep.StageOrder), rep.Benchtime)
		return
	}

	switch *engineName {
	case "explicit", "symbolic", "auto":
	default:
		fatalf("unknown engine %q (want explicit, symbolic or auto)", *engineName)
	}

	opts := synth.Options{RS: *rs, Share: *share, Parallel: *parallel}
	opts.Repair.MaxModels = *maxModels
	opts.Repair.Workers = *repairWorkers

	if *table1 {
		failed := false
		if ses.o != nil {
			// Observed runs go spec by spec so spans and counter deltas
			// attribute cleanly to one benchmark each.
			for _, e := range benchdata.Table1 {
				finish := ses.begin()
				journal.PublishRunStart(e.Name, e.Source, runConfig(*engineName, opts))
				rep, err := synth.FromSTG(e.STG(), opts)
				journalRunEnd(e.Name, rep, err)
				finish(e.Name, func(r *obs.RunReport) { fillSynth(r, rep, err) })
				failed = printTable1Result(benchdata.Table1Result{Entry: e, Report: rep, Err: err}, *quiet) || failed
			}
		} else {
			for _, r := range benchdata.RunTable1(opts, *parallel) {
				failed = printTable1Result(r, *quiet) || failed
			}
		}
		if failed {
			exit(1)
		}
		return
	}

	finish := ses.begin()
	var net *stg.STG
	var source string
	switch {
	case *benchName != "":
		e, ok := benchdata.Table1ByName(*benchName)
		if !ok {
			fatalf("unknown benchmark %q (use -list)", *benchName)
		}
		source = e.Source
		journal.PublishRunStart(e.Name, source, runConfig(*engineName, opts))
		net = e.STG()
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatalf("%v", err)
		}
		source = string(data)
		net, err = stg.Parse(source)
		if err != nil {
			fatalf("%v", err)
		}
		// The spec's name is only known after parsing, so a file-spec
		// journal opens its run just after the parse stage event.
		journal.PublishRunStart(net.Name, source, runConfig(*engineName, opts))
	default:
		flag.Usage()
		exit(2)
	}

	if *useBaseline {
		g, err := stg.BuildSG(net)
		if err != nil {
			finish(net.Name, func(r *obs.RunReport) { r.Verdict = "error: " + err.Error() })
			fatalf("%v", err)
		}
		ssp := obs.Start("synth", obs.A("spec", net.Name))
		nl, err := baseline.Synthesize(g, netlist.Options{RS: *rs})
		ssp.End()
		if err != nil {
			finish(net.Name, func(r *obs.RunReport) { r.Verdict = "error: " + err.Error() })
			fatalf("baseline: %v", err)
		}
		res := verify.Check(nl, g)
		journal.PublishRunEnd(net.Name, nl.String(), 0, res.String(), res.OK())
		finish(net.Name, func(r *obs.RunReport) {
			r.Verdict = res.String()
			r.OK = res.OK()
			r.Literals = nl.Stats().Literals
			r.SpecStates = g.NumStates()
			r.FinalStates = g.NumStates()
			r.ComposedStates = res.States
		})
		if !*quiet {
			fmt.Printf("baseline netlist (%s):\n%s", nl.Stats(), nl)
		}
		fmt.Printf("%s: %s\n", net.Name, res)
		if !res.OK() {
			exit(1)
		}
		return
	}

	rep, err := synth.FromSTG(net, opts)
	if err != nil && *engineName != "explicit" && engine.IsStateLimit(err) {
		// The spec is past the explicit engine's capacity. Synthesis
		// needs the explicit graph, but the symbolic engine can still
		// answer the analysis questions — report those instead of dying.
		analysisOnly(net, finish, *quiet)
		return
	}
	journalRunEnd(net.Name, rep, err)
	finish(net.Name, func(r *obs.RunReport) { fillSynth(r, rep, err) })
	if err != nil {
		fatalf("%v", err)
	}
	if *quiet {
		fmt.Printf("%s: %s\n", net.Name, rep.Verify)
	} else {
		fmt.Print(rep.Summary())
	}
	if *dot {
		fmt.Print(rep.Final.DOT())
	}
	if *verilog {
		fmt.Print(rep.Netlist.Verilog(net.Name))
	}
	if *fanin > 0 || *inverters {
		res, err := tech.Map(rep.Netlist, rep.Final, tech.Library{
			MaxFanin:          *fanin,
			ExplicitInverters: *inverters,
		})
		if err != nil {
			fatalf("mapping: %v", err)
		}
		fmt.Printf("technology mapping:\n%s", res)
		if len(res.Obligations) > 0 {
			if err := tech.ValidateObligations(res, rep.Final, 10); err != nil {
				fmt.Printf("obligation validation: FAILED — %v\n", err)
			} else {
				fmt.Println("obligation validation: clean over 10 simulated delay assignments")
			}
		}
	}
	if !rep.OK() {
		exit(1)
	}
}

// analysisOnly is the -engine=symbolic|auto degradation path for specs
// the explicit engine cannot explore: report the symbolic reachability
// count and the existence-only MC verdict, then exit by their status.
func analysisOnly(net *stg.STG, finish func(string, func(*obs.RunReport)), quiet bool) {
	a, err := (&engine.Symbolic{}).Analyze(net)
	if err != nil {
		finish(net.Name, func(r *obs.RunReport) { r.Verdict = "error: " + err.Error() })
		fatalf("symbolic analysis: %v", err)
	}
	ok := !a.Unsafe && len(a.MCUnresolved) == 0
	verdict := fmt.Sprintf("analysis-only (symbolic): %d states", a.States)
	switch {
	case a.Unsafe:
		verdict = "analysis-only (symbolic): net is not 1-safe"
	case len(a.MCUnresolved) > 0:
		verdict += fmt.Sprintf(", %d excitation regions without a monotonous cover", len(a.MCUnresolved))
	default:
		verdict += ", every excitation region has a monotonous cover"
	}
	journal.PublishRunEnd(net.Name, "", 0, verdict, ok)
	finish(net.Name, func(r *obs.RunReport) {
		r.Verdict = verdict
		r.OK = ok
	})
	if !quiet {
		fmt.Printf("%s: state space exceeds the explicit engine; symbolic analysis only\n", net.Name)
		if len(a.MCUnresolved) > 0 {
			fmt.Printf("  unresolved regions: %v\n", a.MCUnresolved)
		}
	}
	fmt.Printf("%s: %s\n", net.Name, verdict)
	if !ok {
		exit(1)
	}
}

// printTable1Result renders one Table-1 outcome and reports failure.
func printTable1Result(r benchdata.Table1Result, quiet bool) (failed bool) {
	if r.Err != nil {
		fmt.Printf("%s: ERROR: %v\n", r.Entry.Name, r.Err)
		return true
	}
	if quiet {
		fmt.Printf("%-16s added=%d %s\n", r.Entry.Name, len(r.Report.AddedSignals), r.Report.Verify)
	} else {
		fmt.Print(r.Report.Summary())
	}
	return !r.Report.OK()
}

// exit flushes every pending output — profiles, metrics, trace, run
// reports — before terminating, since os.Exit skips deferred calls.
func exit(code int) {
	ses.flush()
	os.Exit(code)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mcsyn: "+format+"\n", args...)
	exit(1)
}
