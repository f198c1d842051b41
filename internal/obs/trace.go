package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Attr is one key-value span attribute.
type Attr struct {
	Key   string
	Value any
}

// A builds an attribute.
func A(key string, value any) Attr { return Attr{Key: key, Value: value} }

// Tracer records spans against a fixed epoch. Start/End maintain an
// implicit current-span stack for the sequential pipeline goroutine;
// concurrent pool workers bypass the stack through Event, which lands
// complete events on per-worker lanes. All methods are safe for
// concurrent use and no-op on the nil tracer.
type Tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	cur     *Span
	recs    []SpanRecord // the newest records, at most maxRecords
	dropped int          // records evicted from the front of recs
	owner   *Observer    // notified of top-level span boundaries; may be nil
}

// maxRecords bounds the records a tracer keeps. A long-lived server has
// its observer on for its whole life and traces every cache miss, so an
// unbounded record list would grow by about 1 KB per miss forever.
// Reaching the bound evicts the oldest quarter at once, which keeps the
// append amortized O(1). A CLI run records a few hundred spans, far
// below the bound, so its Chrome trace and run reports are complete.
const maxRecords = 1 << 14

// appendLocked adds one finished record, evicting the oldest quarter
// when the bound is reached. Callers hold t.mu.
func (t *Tracer) appendLocked(rec SpanRecord) {
	if len(t.recs) == maxRecords {
		n := copy(t.recs, t.recs[maxRecords/4:])
		clear(t.recs[n:])
		t.recs = t.recs[:n]
		t.dropped += maxRecords / 4
	}
	t.recs = append(t.recs, rec)
}

// NewTracer returns a tracer whose timestamps count from now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// SpanRecord is one finished span or event.
type SpanRecord struct {
	Name  string
	TID   int64
	Depth int           // nesting depth below a top-level span
	Start time.Duration // offset from the tracer epoch
	Dur   time.Duration
	Attrs []Attr
}

// Span is an in-flight traced interval. The nil span (what a disabled
// tracer returns) accepts SetAttr and End. SetAttr and End synchronize
// on a per-span mutex, and End snapshots the attributes into the
// record, so a span touched after its End (or from another goroutine)
// can never tear a record a concurrent trace reader — the live /trace
// endpoint, a mid-run Chrome-trace dump — is encoding.
type Span struct {
	t      *Tracer
	name   string
	parent *Span
	depth  int
	start  time.Time

	mu    sync.Mutex
	attrs []Attr
}

// Start opens a span nested under the tracer's current span and makes
// the new span current.
func (t *Tracer) Start(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{t: t, name: name, start: time.Now(), attrs: attrs}
	t.mu.Lock()
	sp.parent = t.cur
	if t.cur != nil {
		sp.depth = t.cur.depth + 1
	}
	t.cur = sp
	owner := t.owner
	t.mu.Unlock()
	if sp.depth == 0 && owner != nil {
		owner.stageStart(name, specAttr(attrs))
	}
	return sp
}

// SetAttr adds (or replaces) an attribute on an open span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// End closes the span and appends its record. Ending out of order is
// tolerated: the current pointer only pops when the span is on top. The
// record owns a copy of the attributes — later SetAttr calls on the
// ended span cannot reach (and therefore cannot race with readers of)
// the finished record.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	s.mu.Lock()
	attrs := append([]Attr(nil), s.attrs...)
	s.mu.Unlock()
	t := s.t
	rec := SpanRecord{
		Name:  s.name,
		TID:   1,
		Depth: s.depth,
		Start: s.start.Sub(t.epoch),
		Dur:   end.Sub(s.start),
		Attrs: attrs,
	}
	t.mu.Lock()
	if t.cur == s {
		t.cur = s.parent
	}
	t.appendLocked(rec)
	owner := t.owner
	t.mu.Unlock()
	if s.depth == 0 && owner != nil {
		owner.stageEnd(&rec, specAttr(attrs))
	}
}

// Event records a complete interval directly, bypassing the span stack
// — the thread-safe path for concurrent pool workers (tid picks the
// trace lane).
func (t *Tracer) Event(name string, tid int64, start time.Time, d time.Duration, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.appendLocked(SpanRecord{
		Name:  name,
		TID:   tid,
		Start: start.Sub(t.epoch),
		Dur:   d,
		Attrs: attrs,
	})
	t.mu.Unlock()
}

// Mark returns a cursor into the record stream; RecordsSince(mark)
// returns everything finished after it. Run reports use the pair to
// attribute spans to one spec. The cursor counts every record ever
// finished, evicted ones included, so it stays valid across eviction.
func (t *Tracer) Mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped + len(t.recs)
}

// RecordsSince copies the records finished after mark that are still
// kept.
func (t *Tracer) RecordsSince(mark int) []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	i := mark - t.dropped
	if mark < 0 || i > len(t.recs) {
		i = len(t.recs)
	}
	if i < 0 {
		i = 0
	}
	return append([]SpanRecord(nil), t.recs[i:]...)
}

// Records copies every kept record.
func (t *Tracer) Records() []SpanRecord { return t.RecordsSince(0) }

// chromeEvent is one trace_event entry (the subset of the format the
// Chrome/Perfetto loaders need).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

// WriteChromeTrace renders every kept record as Chrome trace_event
// JSON (complete "X" events plus thread-name metadata), loadable in
// about:tracing and Perfetto.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return nil
	}
	recs := t.Records()
	tr := chromeTrace{DisplayTimeUnit: "ms"}
	tids := map[int64]bool{}
	for _, r := range recs {
		ev := chromeEvent{
			Name: r.Name,
			Cat:  "mcsyn",
			Ph:   "X",
			TS:   float64(r.Start.Nanoseconds()) / 1e3,
			Dur:  float64(r.Dur.Nanoseconds()) / 1e3,
			PID:  1,
			TID:  r.TID,
		}
		if len(r.Attrs) > 0 {
			ev.Args = map[string]any{}
			for _, a := range r.Attrs {
				ev.Args[a.Key] = a.Value
			}
		}
		tr.TraceEvents = append(tr.TraceEvents, ev)
		tids[r.TID] = true
	}
	lanes := make([]int64, 0, len(tids))
	for tid := range tids {
		lanes = append(lanes, tid)
	}
	sort.Slice(lanes, func(i, j int) bool { return lanes[i] < lanes[j] })
	for _, tid := range lanes {
		name := "pipeline"
		if tid >= 100 {
			name = "worker"
		}
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: "thread_name",
			Ph:   "M",
			PID:  1,
			TID:  tid,
			Args: map[string]any{"name": name},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tr)
}
