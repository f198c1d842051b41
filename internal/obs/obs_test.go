package obs

import (
	"encoding/json"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety exercises every entry point on the disabled (nil)
// observer: nothing may panic and nothing may record.
func TestNilSafety(t *testing.T) {
	Enable(nil)
	if Get() != nil {
		t.Fatal("Get() != nil after Enable(nil)")
	}
	sp := Start("stage")
	sp.SetAttr("k", 1)
	sp.End()
	Info("ignored", "k", 1)
	if h := TaskHook("pool"); h != nil {
		t.Fatal("TaskHook != nil while disabled")
	}

	var r *Registry
	r.Counter("c").Add(1)
	r.Gauge("g").Set(2)
	r.Histogram("h", nil).Observe(3)
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot not nil")
	}

	var tr *Tracer
	tr.Start("x").End()
	tr.Event("e", 1, time.Now(), time.Second)
	if tr.Records() != nil {
		t.Fatal("nil tracer has records")
	}
	if err := tr.WriteChromeTrace(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}

	var o *Observer
	rep := o.BuildRunReport("spec", 0, nil)
	if rep.Spec != "spec" || len(rep.Stages) != 0 {
		t.Fatalf("nil observer report: %+v", rep)
	}
}

// promLine matches one Prometheus text-format sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9][0-9.eE+-]*$`)

func TestRegistryPrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("stg_reach_states_total").Add(41)
	r.Counter("stg_reach_states_total").Add(1)
	r.Counter("par_tasks_total", "pool", "core.regions").Add(9)
	r.Gauge("par_pool_size", "pool", "core.regions").Set(4)
	h := r.Histogram("par_task_seconds", []float64{0.001, 0.01}, "pool", "core.regions")
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE stg_reach_states_total counter",
		"stg_reach_states_total 42",
		`par_tasks_total{pool="core.regions"} 9`,
		`par_pool_size{pool="core.regions"} 4`,
		`par_task_seconds_bucket{pool="core.regions",le="0.001"} 1`,
		`par_task_seconds_bucket{pool="core.regions",le="0.01"} 2`,
		`par_task_seconds_bucket{pool="core.regions",le="+Inf"} 3`,
		`par_task_seconds_count{pool="core.regions"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("unparseable sample line %q", line)
		}
	}

	snap := r.Snapshot()
	if snap["stg_reach_states_total"] != 42 {
		t.Errorf("snapshot counter = %v", snap["stg_reach_states_total"])
	}
	if snap[`par_task_seconds_count{pool="core.regions"}`] != 3 {
		t.Errorf("snapshot histogram count = %v", snap[`par_task_seconds_count{pool="core.regions"}`])
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Add(1)
				r.Histogram("h", nil).Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

func TestTracerNestingAndMarks(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("reach", A("spec", "nak-pa"))
	child := tr.Start("reach.explore")
	child.End()
	root.SetAttr("states", 56)
	root.End()

	mark := tr.Mark()
	tr.Start("verify").End()

	recs := tr.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	// Completion order: child first.
	if recs[0].Name != "reach.explore" || recs[0].Depth != 1 {
		t.Errorf("child record = %+v", recs[0])
	}
	if recs[1].Name != "reach" || recs[1].Depth != 0 {
		t.Errorf("root record = %+v", recs[1])
	}
	if recs[1].Dur < recs[0].Dur {
		t.Errorf("root dur %v < child dur %v", recs[1].Dur, recs[0].Dur)
	}
	since := tr.RecordsSince(mark)
	if len(since) != 1 || since[0].Name != "verify" {
		t.Errorf("RecordsSince = %+v", since)
	}
}

// TestTracerBounded checks that a tracer past maxRecords keeps at most
// that many records, and that a mark taken just before an eviction
// still selects exactly the records finished after it.
func TestTracerBounded(t *testing.T) {
	tr := NewTracer()
	now := time.Now()
	for i := 0; i < maxRecords-2; i++ {
		tr.Event("old", 100, now, 0)
	}
	mark := tr.Mark()
	for i := 0; i < 5; i++ {
		tr.Event("new", 100, now, 0, A("i", i))
	}
	if got := tr.Mark(); got != maxRecords+3 {
		t.Fatalf("Mark = %d, want %d (cursor counts evicted records)", got, maxRecords+3)
	}
	if n := len(tr.Records()); n > maxRecords {
		t.Fatalf("kept %d records, cap %d", n, maxRecords)
	}
	since := tr.RecordsSince(mark)
	if len(since) != 5 {
		t.Fatalf("RecordsSince(mark) = %d records, want 5", len(since))
	}
	for i, r := range since {
		if r.Name != "new" || r.Attrs[0].Value != i {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	for i := 0; i < 3*maxRecords; i++ {
		tr.Start("span").End()
	}
	if n := len(tr.Records()); n > maxRecords {
		t.Fatalf("kept %d records, cap %d", n, maxRecords)
	}
}

func TestChromeTraceFormat(t *testing.T) {
	tr := NewTracer()
	sp := tr.Start("parse", A("spec", "x"))
	sp.End()
	tr.Event("core.regions", 100, time.Now(), 2*time.Millisecond, A("task", 0))

	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var got struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			PID  int64          `json:"pid"`
			TID  int64          `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &got); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var x, m int
	for _, ev := range got.TraceEvents {
		switch ev.Ph {
		case "X":
			x++
			if ev.Name == "" || ev.PID != 1 {
				t.Errorf("bad X event %+v", ev)
			}
		case "M":
			m++
			if ev.Name != "thread_name" {
				t.Errorf("bad metadata event %+v", ev)
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if x != 2 || m != 2 {
		t.Fatalf("got %d X events and %d M events, want 2 and 2", x, m)
	}
}

func TestTaskHookRecords(t *testing.T) {
	o := New(nil)
	Enable(o)
	defer Enable(nil)

	hook := TaskHook("core.regions")
	if hook == nil {
		t.Fatal("TaskHook nil while enabled")
	}
	start := time.Now()
	hook(3, 1, start, 5*time.Millisecond)
	hook(4, 0, start, time.Millisecond)

	if got := o.Metrics.Counter("par_tasks_total", "pool", "core.regions").Value(); got != 2 {
		t.Errorf("par_tasks_total = %d, want 2", got)
	}
	recs := o.Tracer.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d trace events, want 2", len(recs))
	}
	if recs[0].TID != 101 || recs[1].TID != 100 {
		t.Errorf("worker lanes = %d, %d", recs[0].TID, recs[1].TID)
	}
}

func TestBuildRunReport(t *testing.T) {
	o := New(nil)
	base := o.Metrics.Snapshot()
	mark := o.Tracer.Mark()

	o.Metrics.Counter("verify_states_total").Add(7)
	sp := o.Tracer.Start("verify", A("spec", "x"))
	inner := o.Tracer.Start("verify.inner")
	inner.End()
	sp.End()
	o.Tracer.Event("core.regions", 100, time.Now(), time.Millisecond)

	rep := o.BuildRunReport("x", mark, base)
	if len(rep.Stages) != 1 || rep.Stages[0].Name != "verify" {
		t.Fatalf("stages = %+v", rep.Stages)
	}
	if rep.Counters["verify_states_total"] != 7 {
		t.Errorf("counter delta = %v", rep.Counters["verify_states_total"])
	}
	if _, err := json.MarshalIndent(rep, "", "  "); err != nil {
		t.Fatal(err)
	}
}
