package obs

import (
	"runtime"
	"time"
)

// Event is one pipeline progress event: the unit of the flight
// recorder (internal/obs/journal) and of the live SSE progress stream
// (internal/obs/obshttp). Events are produced at stage boundaries and
// other once-per-phase points — never per hot-loop iteration — so the
// stream stays a few dozen entries per synthesized spec.
type Event struct {
	Seq  int64  `json:"seq"`            // monotonically increasing per observer
	TUs  int64  `json:"t_us"`           // microseconds since the observer epoch
	Kind string `json:"kind"`           // run_start, stage_start, stage_end, repair_round, ...
	Spec string `json:"spec,omitempty"` // owning specification, when known

	Fields map[string]any `json:"fields,omitempty"`
}

// Sink consumes pipeline events. Implementations must be safe for
// concurrent use and must not block: a slow sink (an SSE client that
// stopped reading) drops events rather than stalling the pipeline.
type Sink interface {
	Publish(Event)
}

// AddSink attaches a sink to the observer. Copy-on-write: the publish
// path loads the slice without a lock.
func (o *Observer) AddSink(s Sink) {
	if o == nil || s == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	old := o.sinks.Load()
	var next []Sink
	if old != nil {
		next = append(next, *old...)
	}
	next = append(next, s)
	o.sinks.Store(&next)
}

func (o *Observer) hasSinks() bool {
	if o == nil {
		return false
	}
	s := o.sinks.Load()
	return s != nil && len(*s) > 0
}

// SinksEnabled reports whether the global observer has at least one
// event sink attached. Call sites that pay to assemble event payloads
// (or read runtime.MemStats for per-stage allocation deltas) check it
// first, so runs without a journal or progress stream pay nothing.
func SinksEnabled() bool { return Get().hasSinks() }

// Publish emits one event to every attached sink of the global
// observer. kv lists alternating field keys and values; a trailing odd
// key is dropped. A no-op when observation is off or no sink is
// attached.
func Publish(kind, spec string, kv ...any) { Get().Publish(kind, spec, kv...) }

// Publish emits one event to every attached sink.
func (o *Observer) Publish(kind, spec string, kv ...any) {
	if !o.hasSinks() {
		return
	}
	var fields map[string]any
	if len(kv) >= 2 {
		fields = make(map[string]any, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			if k, ok := kv[i].(string); ok {
				fields[k] = kv[i+1]
			}
		}
	}
	o.publishEvent(kind, spec, fields)
}

func (o *Observer) publishEvent(kind, spec string, fields map[string]any) {
	sinks := o.sinks.Load()
	if sinks == nil {
		return
	}
	ev := Event{
		Seq:    o.seq.Add(1),
		TUs:    time.Since(o.epoch).Microseconds(),
		Kind:   kind,
		Spec:   spec,
		Fields: fields,
	}
	for _, s := range *sinks {
		s.Publish(ev)
	}
}

// stageStart forwards a top-level span opening to the event sinks.
// Called by the tracer outside its lock, on the sequential pipeline
// goroutine.
func (o *Observer) stageStart(name, spec string) {
	if o.hasSinks() {
		o.publishEvent("stage_start", spec, map[string]any{"stage": name})
	}
}

// stageEnd forwards a finished top-level span to the event sinks; the
// span's attributes ride along as event fields.
func (o *Observer) stageEnd(rec *SpanRecord, spec string) {
	if !o.hasSinks() {
		return
	}
	fields := make(map[string]any, len(rec.Attrs)+2)
	for _, a := range rec.Attrs {
		fields[a.Key] = a.Value
	}
	fields["stage"] = rec.Name
	fields["wall_us"] = rec.Dur.Microseconds()
	o.publishEvent("stage_end", spec, fields)
}

// specAttr extracts the conventional "spec" attribute of a span.
func specAttr(attrs []Attr) string {
	for _, a := range attrs {
		if a.Key == "spec" {
			if s, ok := a.Value.(string); ok {
				return s
			}
		}
	}
	return ""
}

// MemMark is a snapshot of the cumulative allocation counters, taken at
// a stage boundary to attribute allocation deltas to that stage in the
// flight recorder. The zero mark (what a run without sinks gets) is
// inert.
type MemMark struct {
	mallocs, bytes uint64
	ok             bool
}

// MarkMem snapshots the runtime allocation counters when an event sink
// is attached; otherwise it returns an inert mark, so unjournaled runs
// never pay the ReadMemStats stop-the-world.
func MarkMem() MemMark {
	if !SinksEnabled() {
		return MemMark{}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return MemMark{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, ok: true}
}

// AttrMemDelta records the allocation delta since the mark as "allocs"
// and "alloc_bytes" attributes on the span (and therefore as fields of
// its stage_end event). A no-op on an inert mark or nil span.
func (s *Span) AttrMemDelta(m MemMark) {
	if s == nil || !m.ok {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.SetAttr("allocs", int64(ms.Mallocs-m.mallocs))
	s.SetAttr("alloc_bytes", int64(ms.TotalAlloc-m.bytes))
}
