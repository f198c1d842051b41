// Command perfbench is the repository's benchmark. One invocation runs
// one named workload — a fixed, seeded sequence of operations — checks
// every output, and prints one JSON result line:
//
//	perfbench -workload table1|wide|serve_mix -seed N -seconds S -trace 0|1
//
// With -trace 0 the line carries the end-to-end metrics, measured with
// no tracing. With -trace 1 the same operations run again through the
// pipeline's layer functions, each call wrapped in a span, and the line
// carries the per-layer metrics. perfbench/run.py builds this command
// and cmd/mcsyn from source and runs it; README.md beside this file
// explains the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// defaultSeed is the seed whose outputs expected.json records.
const defaultSeed = 1

// maxRun bounds one invocation's wall time. Operations not started by
// then count as failed: the benchmark must exit well inside the three
// minutes a run is given even when the program has slowed down.
const maxRun = 150 * time.Second

// config is one invocation's parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	mcsyn    string // path of the mcsyn binary serve_mix starts
	outDir   string // where the traced run writes its spans
	start    time.Time
}

// deadline is when the run stops starting new operations.
func (c *config) deadline() time.Time { return c.start.Add(maxRun) }

func main() {
	start := time.Now()
	var (
		workload = flag.String("workload", "", "workload to run: table1, wide or serve_mix")
		seed     = flag.Int64("seed", defaultSeed, "workload seed")
		seconds  = flag.Int("seconds", 10, "run length in seconds at the calibrated rate; sets the number of operations")
		trace    = flag.Int("trace", 0, "1 runs the operations again through the layer functions and reports per-layer metrics")
		mcsyn    = flag.String("mcsyn", "", "path of the mcsyn binary (serve_mix)")
		outDir   = flag.String("out", ".bench_build", "directory for the traced run's span file")
		probe    = flag.Bool("probe", false, "run one cold set-up of -workload and print its outcomes (used by the set-up measurement)")
		record   = flag.String("record", "", "synthesize the default seed's inputs and write their outcomes to this file")
	)
	flag.Parse()

	if *record != "" {
		if err := writeRecord(*record); err != nil {
			fatal(err)
		}
		return
	}
	if *probe {
		if err := runProbe(*workload, *seed); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("-seconds must be at least 1 and -trace 0 or 1"))
	}
	cfg := &config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		mcsyn:    *mcsyn,
		outDir:   *outDir,
		start:    start,
	}
	var (
		res *result
		err error
	)
	switch cfg.workload {
	case "table1", "wide":
		res, err = runSynth(cfg)
	case "serve_mix":
		res, err = runServe(cfg)
	default:
		err = fmt.Errorf("unknown workload %q (want table1, wide or serve_mix)", cfg.workload)
	}
	if err != nil {
		fatal(err)
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer()
	}
	if err := res.hasExactly(want); err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// fatal reports an error that leaves no result to print. The exit code
// tells the caller the run produced nothing.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// endToEnd names the metrics an untraced run prints, as BENCHMARK.json
// declares them.
var endToEnd = []string{
	"setup_s", "ops_per_s", "latency_ms_p50", "latency_ms_p90", "latency_ms_geomean",
	"hit_latency_ms_p50", "hit_latency_ms_p90", "miss_latency_ms_p50", "miss_latency_ms_p90",
	"peak_rss_mb",
}

// perLayer names the metrics a traced run prints, as BENCHMARK.json
// declares them.
func perLayer() []string {
	var names []string
	for _, l := range layers {
		names = append(names, l+"_ms")
	}
	for _, l := range allocLayers {
		names = append(names, l+"_allocs")
	}
	names = append(names, counts...)
	names = append(names, "encode.prune_ratio", "encode.carry_kept_ratio")
	names = append(names, serveLayerMetrics...)
	return append(names, "trace.op_ms", "trace.residual_ms", "trace.overhead_pct", "driver.ms_per_op")
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// hasExactly reports a metric the run should have set and did not, or
// set and should not have.
func (r *result) hasExactly(names []string) error {
	for _, n := range names {
		if _, ok := r.Metrics[n]; !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
	}
	if len(r.Metrics) != len(names) {
		return fmt.Errorf("%d metrics measured, %d declared", len(r.Metrics), len(names))
	}
	return nil
}

// tally counts checked operations. Every operation the benchmark checks
// is attempted; a failed check, an error or an operation the deadline
// cut off is failed. The first few failures are printed to stderr.
type tally struct {
	attempted, failed int
}

func (t *tally) record(what string, err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if t.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
	}
}

// orphanKill makes the kernel kill a child the moment this process
// dies, so a crashed run leaves no server or probe behind.
func orphanKill() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// spanFile names the file a traced run writes its spans to.
func spanFile(cfg *config) string {
	return filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
}
