package journal

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestWriterRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	in := []obs.Event{
		{Seq: 1, TUs: 10, Kind: "run_start", Spec: "ab", Fields: map[string]any{"engine": "explicit"}},
		{Seq: 2, TUs: 20, Kind: "stage_end", Fields: map[string]any{"stage": "parse", "wall_us": 7.0}},
		{Seq: 3, TUs: 30, Kind: "run_end", Spec: "ab", Fields: map[string]any{"ok": true}},
	}
	for _, ev := range in {
		w.Publish(ev)
	}
	if got := w.Events(); got != int64(len(in)) {
		t.Fatalf("Events() = %d, want %d", got, len(in))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("read %d events, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Seq != in[i].Seq || out[i].Kind != in[i].Kind || out[i].Spec != in[i].Spec {
			t.Fatalf("event %d = %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestNilWriterIsInert(t *testing.T) {
	var w *Writer
	w.Publish(obs.Event{Kind: "x"})
	if w.Events() != 0 || w.Err() != nil || w.Close() != nil {
		t.Fatal("nil writer must drop everything without error")
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	f.n -= len(p)
	return len(p), nil
}

func TestWriterStickyError(t *testing.T) {
	w := New(&failWriter{n: 1}) // fails on the first flush-sized write
	for i := 0; i < 10_000; i++ {
		w.Publish(obs.Event{Seq: int64(i), Kind: "stage_end"})
	}
	w.Close()
	if w.Err() == nil {
		t.Fatal("write error was not kept")
	}
}

func TestSpecSHA(t *testing.T) {
	if got := SpecSHA("abc"); got != "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" {
		t.Fatalf("SpecSHA(abc) = %s", got)
	}
}

// TestReconstruct folds a hand-built journal — with the spec-less parse
// stage the real pipeline produces — back into run records.
func TestReconstruct(t *testing.T) {
	evs := []obs.Event{
		{Kind: "run_start", Spec: "ab", Fields: map[string]any{
			"spec_sha256": "aa", "engine": "explicit",
			"repair_workers": 4.0, "maxmodels": 128.0, "parallel": 1.0,
			"rs": true, "share": false, "go_version": "go1.23",
		}},
		// Parse runs before the spec has a name: spec-less, attaches to
		// the open run.
		{Kind: "stage_end", Fields: map[string]any{"stage": "parse", "wall_us": 42.0, "allocs": 7.0, "alloc_bytes": 512.0}},
		{Kind: "stage_end", Spec: "ab", Fields: map[string]any{"stage": "reach", "wall_us": 100.0, "states": 24.0}},
		{Kind: "repair_round", Spec: "ab", Fields: map[string]any{"round": 0.0}},
		{Kind: "repair_round", Spec: "ab", Fields: map[string]any{"round": 1.0}},
		// A stage event for some other spec must not leak into this run.
		{Kind: "stage_end", Spec: "other", Fields: map[string]any{"stage": "reach", "wall_us": 9.0}},
		{Kind: "run_end", Spec: "ab", Fields: map[string]any{
			"netlist_sha256": "bb", "added": 2.0, "verdict": "speed-independent", "ok": true,
		}},
	}
	runs := Reconstruct(evs)
	if len(runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(runs))
	}
	r := runs[0]
	if r.Spec != "ab" || r.SpecSHA != "aa" || !r.Complete {
		t.Fatalf("run header = %+v", r)
	}
	if r.Config.Engine != "explicit" || r.Config.RepairWorkers != 4 ||
		r.Config.MaxModels != 128 || !r.Config.RS || r.Config.Share {
		t.Fatalf("config = %+v", r.Config)
	}
	if p := r.Stages["parse"]; p.WallUs != 42 || p.Allocs != 7 || p.AllocBytes != 512 {
		t.Fatalf("parse stage = %+v", p)
	}
	if rc := r.Stages["reach"]; rc.WallUs != 100 || rc.Attrs["states"] != 24.0 {
		t.Fatalf("reach stage = %+v", rc)
	}
	if r.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", r.Rounds)
	}
	if r.NetlistSHA != "bb" || r.Added != 2 || !r.OK || r.Verdict != "speed-independent" {
		t.Fatalf("outcome = %+v", r)
	}
	if _, leaked := r.Stages["reach"]; !leaked {
		t.Fatal("reach missing")
	}
	if r.Stages["reach"].WallUs == 9 {
		t.Fatal("stage event of another spec leaked into the run")
	}
}

func TestReconstructInterleaved(t *testing.T) {
	// Two concurrent runs whose events interleave, as a synthesis
	// server journals them. Attribution is by spec; the spec-less
	// stage_end can only belong to "b" once "a" has ended.
	evs := []obs.Event{
		{Kind: "run_start", Spec: "a", Fields: map[string]any{"spec_sha256": "sha-a", "engine": "explicit"}},
		{Kind: "run_start", Spec: "b", Fields: map[string]any{"spec_sha256": "sha-b", "engine": "symbolic"}},
		{Kind: "stage_end", Spec: "b", Fields: map[string]any{"stage": "reach", "wall_us": 5.0}},
		{Kind: "stage_end", Spec: "a", Fields: map[string]any{"stage": "reach", "wall_us": 7.0}},
		{Kind: "repair_round", Spec: "a", Fields: map[string]any{}},
		{Kind: "run_end", Spec: "a", Fields: map[string]any{"netlist_sha256": "net-a", "ok": true}},
		{Kind: "stage_end", Fields: map[string]any{"stage": "cover", "wall_us": 3.0}},
		{Kind: "run_end", Spec: "b", Fields: map[string]any{"netlist_sha256": "net-b", "ok": true}},
	}
	runs := Reconstruct(evs)
	if len(runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(runs))
	}
	a, b := runs[0], runs[1]
	if a.Spec != "a" || b.Spec != "b" {
		t.Fatalf("run order = %s, %s", a.Spec, b.Spec)
	}
	if !a.Complete || !b.Complete {
		t.Fatal("both runs must be complete")
	}
	if a.NetlistSHA != "net-a" || b.NetlistSHA != "net-b" {
		t.Fatalf("digests crossed: %s / %s", a.NetlistSHA, b.NetlistSHA)
	}
	if a.Stages["reach"].WallUs != 7 || b.Stages["reach"].WallUs != 5 {
		t.Fatalf("stage attribution crossed: a=%d b=%d", a.Stages["reach"].WallUs, b.Stages["reach"].WallUs)
	}
	if a.Rounds != 1 || b.Rounds != 0 {
		t.Fatalf("rounds = %d/%d, want 1/0", a.Rounds, b.Rounds)
	}
	// The spec-less cover stage landed on b (sole open run after a ended).
	if _, ok := a.Stages["cover"]; ok {
		t.Fatal("spec-less stage attached to a completed run")
	}
	if b.Stages["cover"].WallUs != 3 {
		t.Fatal("spec-less stage must attach to the sole open run")
	}
}

func TestReconstructSequentialUnchanged(t *testing.T) {
	// The pre-server shape: one run at a time, spec-less parse stage.
	evs := []obs.Event{
		{Kind: "run_start", Spec: "x", Fields: map[string]any{"spec_sha256": "sha-x"}},
		{Kind: "stage_end", Fields: map[string]any{"stage": "parse", "wall_us": 2.0}},
		{Kind: "run_end", Spec: "x", Fields: map[string]any{"netlist_sha256": "net-x", "ok": true}},
		{Kind: "run_start", Spec: "y", Fields: map[string]any{"spec_sha256": "sha-y"}},
		{Kind: "stage_end", Fields: map[string]any{"stage": "parse", "wall_us": 4.0}},
		{Kind: "run_end", Spec: "y", Fields: map[string]any{"netlist_sha256": "net-y", "ok": false}},
	}
	runs := Reconstruct(evs)
	if len(runs) != 2 || !runs[0].Complete || !runs[1].Complete {
		t.Fatalf("got %+v", runs)
	}
	if runs[0].Stages["parse"].WallUs != 2 || runs[1].Stages["parse"].WallUs != 4 {
		t.Fatal("spec-less parse stages must attach to their own runs")
	}
	if runs[1].OK {
		t.Fatal("y must reconstruct as failed")
	}
}

func TestReadToleratesTruncatedTail(t *testing.T) {
	// A live journal legitimately ends mid-event; the reader must keep
	// every complete line and drop only the partial tail.
	data := `{"seq":1,"kind":"run_start","spec":"a"}` + "\n" +
		`{"seq":2,"kind":"run_end","spec":"a"}` + "\n" +
		`{"seq":3,"kind":"stage_`
	evs, err := Read(strings.NewReader(data))
	if err != nil {
		t.Fatalf("truncated tail must not error: %v", err)
	}
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	// Mid-file corruption is still an error.
	bad := `{"seq":1,"kind":"run_start"` + "\n" + `{"seq":2,"kind":"run_end","spec":"a"}` + "\n"
	if _, err := Read(strings.NewReader(bad)); err == nil {
		t.Fatal("mid-file corruption must error")
	}
}
