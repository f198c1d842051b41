// Package journal is the pipeline's flight recorder: an append-only
// JSONL event journal that makes any observed run reconstructible and
// diffable after the fact. Each line is one obs.Event; the sequence for
// one synthesized spec reads
//
//	run_start   spec name, sha-256 of the .g source, full config
//	stage_start / stage_end
//	            every top-level pipeline stage with wall-clock and
//	            (when the pipeline marked them) allocation counters
//	            plus the stage's span attributes (states, edges, added
//	            signals, composed states, ...)
//	repair_round / repair_done / sat_stats
//	            the state-signal insertion loop's per-round progress
//	            and its SAT search totals
//	run_end     outcome digests: sha-256 of the netlist text, inserted
//	            signal count, verdict
//
// Like the rest of the obs layer the journal is opt-in and nil-safe: a
// nil *Writer accepts events and drops them, and nothing in the hot
// paths ever publishes per iteration. Reconstruct inverts the format —
// it folds a journal back into per-run records, which is what the
// regression tooling and the acceptance tests consume.
package journal

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"

	"repro/internal/obs"
)

// Writer appends events to one journal. Safe for concurrent use; the
// nil writer drops everything.
type Writer struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	c   io.Closer
	n   int64
	err error
}

// Create opens (truncating) a journal file.
func Create(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := New(f)
	w.c = f
	return w, nil
}

// New wraps an io.Writer as a journal.
func New(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w)}
}

// Publish appends one event as a JSON line. Implements obs.Sink. Write
// errors are sticky: the first one is kept and later events are
// dropped, so a full disk degrades to a truncated journal rather than
// a wedged pipeline.
func (w *Writer) Publish(ev obs.Event) {
	if w == nil {
		return
	}
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	if _, err := w.bw.Write(data); err != nil { //reprolint:lock w.mu exists to serialize journal writes; contenders expect to wait for the buffered flush
		w.err = err
		return
	}
	if err := w.bw.WriteByte('\n'); err != nil { //reprolint:lock w.mu exists to serialize journal writes; contenders expect to wait for the buffered flush
		w.err = err
		return
	}
	w.n++
}

// Events returns the number of events written so far.
func (w *Writer) Events() int64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Err returns the sticky write error, if any.
func (w *Writer) Err() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close flushes and closes the journal.
func (w *Writer) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.bw.Flush(); err != nil && w.err == nil { //reprolint:lock Close's final flush must run under w.mu so no Publish can interleave with shutdown
		w.err = err
	}
	if w.c != nil {
		if err := w.c.Close(); err != nil && w.err == nil { //reprolint:lock closing the underlying file under w.mu is the shutdown barrier; CHA resolves io.Closer to loaded types, but w.c is the journal file
			w.err = err
		}
		w.c = nil
	}
	return w.err
}

// RunConfig is the synthesis configuration recorded in a run_start
// event — everything that can change what the pipeline computes or how
// it searches.
type RunConfig struct {
	Engine        string `json:"engine"`
	RepairWorkers int    `json:"repair_workers"`
	MaxModels     int    `json:"maxmodels"`
	Parallel      int    `json:"parallel"`
	RS            bool   `json:"rs"`
	Share         bool   `json:"share"`
}

// SpecSHA is the provenance digest of an input: the hex sha-256 of the
// .g source text.
func SpecSHA(source string) string {
	sum := sha256.Sum256([]byte(source))
	return hex.EncodeToString(sum[:])
}

// PublishRunStart records the beginning of one spec's pipeline on the
// global observer's sinks: the source digest, the full configuration,
// and the toolchain. Call it before parsing so the parse stage lands
// inside the run.
func PublishRunStart(spec, source string, cfg RunConfig) {
	if !obs.SinksEnabled() {
		return
	}
	obs.Publish("run_start", spec,
		"spec_sha256", SpecSHA(source),
		"engine", cfg.Engine,
		"repair_workers", cfg.RepairWorkers,
		"maxmodels", cfg.MaxModels,
		"parallel", cfg.Parallel,
		"rs", cfg.RS,
		"share", cfg.Share,
		"go_version", runtime.Version(),
		"gomaxprocs", runtime.GOMAXPROCS(0),
	)
}

// PublishRunEnd records one spec's outcome digests: the netlist hash
// (empty when synthesis failed before emitting one), the inserted
// state-signal count, and the verdict line.
func PublishRunEnd(spec, netlistText string, added int, verdict string, ok bool) {
	if !obs.SinksEnabled() {
		return
	}
	digest := ""
	if netlistText != "" {
		digest = SpecSHA(netlistText)
	}
	obs.Publish("run_end", spec,
		"netlist_sha256", digest,
		"added", added,
		"verdict", verdict,
		"ok", ok,
	)
}

// Read decodes a journal stream. A malformed FINAL line is dropped
// rather than reported: reading a live journal (the writer buffers and
// flushes on close) legitimately races one partially written trailing
// event, and an append-only flight recorder must stay readable
// mid-flight. Malformed lines with valid lines after them still error.
func Read(r io.Reader) ([]obs.Event, error) {
	var evs []obs.Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	badLine, badErr := 0, error(nil)
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			if badErr == nil {
				badLine, badErr = line, err
				continue
			}
			return evs, fmt.Errorf("journal: line %d: %w", badLine, badErr)
		}
		if badErr != nil {
			return evs, fmt.Errorf("journal: line %d: %w", badLine, badErr)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		return evs, err
	}
	return evs, nil
}

// ReadFile decodes a journal file.
func ReadFile(path string) ([]obs.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Stage is one reconstructed pipeline stage of a run.
type Stage struct {
	WallUs     int64          // wall clock, microseconds
	Allocs     int64          // heap allocations during the stage (when marked)
	AllocBytes int64          // heap bytes during the stage (when marked)
	Attrs      map[string]any // remaining stage_end fields (states, edges, ...)
}

// Run is the reconstruction of one spec's journal slice.
type Run struct {
	Spec       string
	SpecSHA    string
	Config     RunConfig
	GoVersion  string
	Stages     map[string]Stage // last completed instance per stage name
	Rounds     int              // repair_round events observed
	NetlistSHA string
	Added      int
	Verdict    string
	OK         bool
	Complete   bool // a run_end was observed
}

// Reconstruct folds a journal back into per-run records, in run_start
// order. Concurrent runs (a synthesis server journals many specs at
// once) interleave their events; attribution is by spec, so any
// interleaving reconstructs identically to the sequential journal of
// the same runs. Spec-less events (the parse stage runs before the
// spec has a name) attach to the sole open run when exactly one is
// open — the sequential case — and are dropped otherwise, since they
// cannot be attributed.
func Reconstruct(evs []obs.Event) []Run {
	var runs []Run
	open := map[string]int{} // spec → index of its open run in runs
	sole := -1               // index of the single open run, -1 when 0 or >1 are open
	resolve := func(spec string) *Run {
		if spec != "" {
			if i, ok := open[spec]; ok {
				return &runs[i]
			}
			return nil
		}
		if sole >= 0 {
			return &runs[sole]
		}
		return nil
	}
	for _, ev := range evs {
		switch ev.Kind {
		case "run_start":
			// A re-run of a still-open spec supersedes it: the older run
			// stays incomplete, exactly as a crashed sequential run would.
			runs = append(runs, Run{
				Spec:    ev.Spec,
				SpecSHA: str(ev.Fields, "spec_sha256"),
				Config: RunConfig{
					Engine:        str(ev.Fields, "engine"),
					RepairWorkers: int(num(ev.Fields, "repair_workers")),
					MaxModels:     int(num(ev.Fields, "maxmodels")),
					Parallel:      int(num(ev.Fields, "parallel")),
					RS:            boolean(ev.Fields, "rs"),
					Share:         boolean(ev.Fields, "share"),
				},
				GoVersion: str(ev.Fields, "go_version"),
				Stages:    map[string]Stage{},
			})
			open[ev.Spec] = len(runs) - 1
			if len(open) == 1 {
				sole = len(runs) - 1
			} else {
				sole = -1
			}
		case "stage_end":
			cur := resolve(ev.Spec)
			if cur == nil || cur.Complete {
				continue
			}
			st := Stage{
				WallUs:     int64(num(ev.Fields, "wall_us")),
				Allocs:     int64(num(ev.Fields, "allocs")),
				AllocBytes: int64(num(ev.Fields, "alloc_bytes")),
				Attrs:      map[string]any{},
			}
			for k, v := range ev.Fields {
				switch k {
				case "stage", "wall_us", "allocs", "alloc_bytes":
				default:
					st.Attrs[k] = v
				}
			}
			cur.Stages[str(ev.Fields, "stage")] = st
		case "repair_round":
			if cur := resolve(ev.Spec); cur != nil && !cur.Complete {
				cur.Rounds++
			}
		case "run_end":
			cur := resolve(ev.Spec)
			if cur == nil || cur.Complete {
				continue
			}
			cur.NetlistSHA = str(ev.Fields, "netlist_sha256")
			cur.Added = int(num(ev.Fields, "added"))
			cur.Verdict = str(ev.Fields, "verdict")
			cur.OK = boolean(ev.Fields, "ok")
			cur.Complete = true
			delete(open, cur.Spec)
			sole = -1
			if len(open) == 1 {
				for _, i := range open { //reprolint:ordered single-entry map; the loop body runs at most once
					sole = i
				}
			}
		}
	}
	return runs
}

// str, num and boolean read JSON-round-tripped field values (numbers
// arrive as float64, but events published in-process keep their Go
// types).
func str(m map[string]any, k string) string {
	s, _ := m[k].(string)
	return s
}

func num(m map[string]any, k string) float64 {
	switch v := m[k].(type) {
	case float64:
		return v
	case int:
		return float64(v)
	case int64:
		return float64(v)
	}
	return 0
}

func boolean(m map[string]any, k string) bool {
	b, _ := m[k].(bool)
	return b
}
