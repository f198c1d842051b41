// Package obs is the zero-dependency observability layer of the
// synthesis/verification engine: named counters, gauges and histograms
// with atomic updates, span-based tracing that nests the pipeline
// stages (parse → reach → analyze → repair → synth → verify), and
// writers for the three interchange formats the mcsyn CLI exposes —
// Prometheus text metrics, Chrome trace_event JSON (loadable in
// about:tracing and Perfetto), and a machine-readable per-spec run
// report.
//
// The layer is opt-in and nil-safe: the package-global Observer is nil
// until Enable installs one, and every method tolerates nil receivers,
// so instrumented code calls obs unconditionally. The engine's hot
// loops never call into this package per iteration — they accumulate
// plain struct-local counters and publish once per stage, so with
// observability off the hot paths pay no atomic operations, no clock
// reads and no allocation.
package obs

import (
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// Observer bundles the sinks of one observed run: the metric registry,
// the span tracer, an optional structured progress logger, and any
// number of attached event sinks (the flight-recorder journal, the SSE
// progress stream). A nil *Observer is the disabled state; all methods
// no-op.
type Observer struct {
	Metrics *Registry
	Tracer  *Tracer
	Log     *slog.Logger

	mu    sync.Mutex
	sinks atomic.Pointer[[]Sink]
	seq   atomic.Int64
	epoch time.Time
}

// New returns an Observer with a fresh registry and tracer. log may be
// nil (metrics and traces are still collected, progress lines are not).
func New(log *slog.Logger) *Observer {
	o := &Observer{Metrics: NewRegistry(), Tracer: NewTracer(), Log: log}
	o.epoch = o.Tracer.epoch
	o.Tracer.owner = o
	return o
}

var global atomic.Pointer[Observer]

// Enable installs o as the process-global observer (nil disables
// observation again). Instrumented packages read it through Get.
func Enable(o *Observer) { global.Store(o) }

// Get returns the global observer, or nil when observation is off.
func Get() *Observer { return global.Load() }

// Enabled reports whether a global observer is installed. Functions on
// per-call hot paths check it before building span attributes — the
// variadic attr slice of a Start call allocates even when the span is
// discarded, and skipping it keeps disabled runs allocation-free.
func Enabled() bool { return Get() != nil }

// Start opens a span on the global observer's tracer. It returns nil —
// safe to End — when observation is off.
func Start(name string, attrs ...Attr) *Span {
	o := Get()
	if o == nil {
		return nil
	}
	return o.Tracer.Start(name, attrs...)
}

// Info emits a structured progress line when a logger is installed.
func Info(msg string, args ...any) {
	if o := Get(); o != nil && o.Log != nil {
		o.Log.Info(msg, args...)
	}
}

// TaskHook returns a per-task observation hook for a par.ForEachHook
// fan-out, or nil when observation is off (the pool then skips clock
// reads entirely). Each completed task records its duration in the
// pool's task histogram and bumps the task and busy-time counters;
// tasks at least taskTraceThreshold long additionally land as one
// trace event on the worker's own lane. The threshold keeps traces
// legible — the analysis fan-outs run tens of thousands of sub-10µs
// tasks per spec, which the histogram summarizes far better than a
// multi-megabyte wall of slivers would.
func TaskHook(pool string) func(i, worker int, start time.Time, d time.Duration) {
	o := Get()
	if o == nil {
		return nil
	}
	hist := o.Metrics.Histogram("par_task_seconds", DurationBuckets, "pool", pool)
	tasks := o.Metrics.Counter("par_tasks_total", "pool", pool)
	busy := o.Metrics.Counter("par_busy_microseconds_total", "pool", pool)
	return func(i, worker int, start time.Time, d time.Duration) {
		hist.Observe(d.Seconds())
		tasks.Add(1)
		busy.Add(d.Microseconds())
		if d >= taskTraceThreshold {
			o.Tracer.Event(pool, workerTID(worker), start, d, A("task", i), A("worker", worker))
		}
	}
}

// taskTraceThreshold is the minimum duration for a pool task to earn
// its own trace event; shorter tasks are still fully counted in the
// par_task_seconds histogram and the task/busy counters.
const taskTraceThreshold = 100 * time.Microsecond

// workerTID maps a pool worker index to its trace lane: lane 1 is the
// sequential pipeline, workers get their own rows from 100 up.
func workerTID(worker int) int64 { return 100 + int64(worker) }

// DurationBuckets are the default histogram bounds for second-valued
// durations: 10µs … ~80s in powers of two-ish steps.
var DurationBuckets = []float64{
	1e-5, 1e-4, 1e-3, 5e-3, 25e-3, 0.1, 0.5, 2.5, 10, 80,
}
