package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/benchdata"
	"repro/internal/obs"
	"repro/internal/synth"
)

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Obs == nil {
		opts.Obs = obs.New(nil)
	}
	s := New(opts)
	t.Cleanup(func() { s.Close() })
	return s
}

func TestCanonicalize(t *testing.T) {
	base := ".model x\n.inputs a\n.outputs b\n.graph\na+ b+\nb+ a+\n.marking {<b+,a+>}\n.end\n"
	variants := []string{
		strings.ReplaceAll(base, "\n", "\r\n"),
		strings.ReplaceAll(base, "a+ b+", "a+ b+  \t"),
		base + "\n\n",
	}
	want := SHA(Canonicalize(base))
	for i, v := range variants {
		if got := SHA(Canonicalize(v)); got != want {
			t.Errorf("variant %d: canonical digest %s, want %s", i, got, want)
		}
	}
	if !strings.HasSuffix(Canonicalize(base), "\n") || strings.HasSuffix(Canonicalize(base), "\n\n") {
		t.Errorf("canonical form must end with exactly one newline")
	}
}

// TestSingleflightAdmitsOneRun hammers one spec from many goroutines
// and asserts the singleflight admitted exactly one compute per stage —
// the pipeline ran once, everyone shared it. Run under -race this is
// also the cache's concurrency test.
func TestSingleflightAdmitsOneRun(t *testing.T) {
	s := newTestServer(t, Options{})
	src := benchdata.Table1[0].Source // nak-pa

	const n = 16
	results := make([]*Result, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			results[i], _ = s.synthesize("", src, Config{}, nil)
		}(i)
	}
	wg.Wait()

	for _, st := range Stages {
		if got := s.computes[st].Value(); got != 1 {
			t.Errorf("stage %s computed %d times, want exactly 1", st, got)
		}
	}
	want := results[0]
	if want.NetlistSHA == "" || !want.OK {
		t.Fatalf("unexpected result: ok=%v verdict=%q err=%q", want.OK, want.Verdict, want.Err)
	}
	for i, r := range results {
		if r.NetlistSHA != want.NetlistSHA {
			t.Errorf("goroutine %d: netlist digest %s, want %s", i, r.NetlistSHA, want.NetlistSHA)
		}
	}
}

// TestCachedColdShardsByteIdentical pins the acceptance criterion:
// results served cold, from cache, and at different shard counts match
// a direct synth.FromSTGSource run — netlist bytes, inserted signals,
// state counts and verdict — for all nine Table-1 benchmarks under
// every netlist configuration ({C, RS} × {private, shared}).
func TestCachedColdShardsByteIdentical(t *testing.T) {
	configs := []Config{{}, {RS: true}, {Share: true}, {RS: true, Share: true}}
	type key struct {
		spec string
		cfg  Config
	}
	ref := map[key]Result{}
	for _, cfg := range configs {
		for _, e := range benchdata.Table1 {
			rep, err := synth.FromSTGSource(e.Source, synth.Options{RS: cfg.RS, Share: cfg.Share})
			if err != nil {
				t.Fatalf("%s %+v: reference synthesis: %v", e.Name, cfg, err)
			}
			ref[key{e.Name, cfg}] = Result{
				Netlist:        rep.Netlist.String(),
				Added:          rep.AddedSignals,
				SpecStates:     rep.Spec.NumStates(),
				FinalStates:    rep.Final.NumStates(),
				ComposedStates: rep.Verify.States,
				OK:             rep.OK(),
			}
		}
	}

	for _, shards := range []int{1, 4} {
		s := newTestServer(t, Options{Shards: shards})
		addr, err := s.Start("127.0.0.1:0")
		if err != nil {
			t.Fatalf("start: %v", err)
		}
		for pass := 0; pass < 2; pass++ {
			for _, cfg := range configs {
				for _, e := range benchdata.Table1 {
					res := postSynth(t, addr, Request{Name: e.Name, Source: e.Source, Config: cfg}).Result
					if res == nil {
						t.Fatalf("shards=%d pass=%d %s %+v: no result", shards, pass, e.Name, cfg)
					}
					want := ref[key{e.Name, cfg}]
					if res.Netlist != want.Netlist {
						t.Errorf("shards=%d pass=%d %s %+v: netlist differs from direct synthesis", shards, pass, e.Name, cfg)
					}
					if !reflect.DeepEqual(res.Added, want.Added) || res.SpecStates != want.SpecStates ||
						res.FinalStates != want.FinalStates || res.ComposedStates != want.ComposedStates || res.OK != want.OK {
						t.Errorf("shards=%d pass=%d %s %+v: served added=%v states=%d/%d composed=%d ok=%v, direct added=%v states=%d/%d composed=%d ok=%v",
							shards, pass, e.Name, cfg, res.Added, res.SpecStates, res.FinalStates, res.ComposedStates, res.OK,
							want.Added, want.SpecStates, want.FinalStates, want.ComposedStates, want.OK)
					}
					if pass == 1 && len(res.Added) != e.PaperAdded {
						t.Errorf("%s: %d added signals from cache, paper says %d", e.Name, len(res.Added), e.PaperAdded)
					}
				}
			}
		}
		// Second pass must have been pure cache: no stage recomputed. The
		// four configurations share one repair per spec and differ only
		// in the netlist stage.
		for _, st := range Stages {
			want := int64(len(benchdata.Table1))
			if st == "netlist" {
				want *= int64(len(configs))
			}
			if got := s.computes[st].Value(); got != want {
				t.Errorf("shards=%d stage %s: %d computes, want %d (second pass must hit cache)", shards, st, got, want)
			}
		}
	}
}

// TestPartialInvalidation pins the per-stage key chaining: flipping a
// netlist-stage config knob (RS) reuses the cached repair, flipping a
// repair-stage knob (MaxModels) recomputes repair but reuses reach.
func TestPartialInvalidation(t *testing.T) {
	s := newTestServer(t, Options{})
	src := benchdata.Table1[0].Source

	if _, tr := s.synthesize("", src, Config{}, nil); len(tr.Computed) != len(Stages) {
		t.Fatalf("cold run computed %v, want all %d stages", tr.Computed, len(Stages))
	}
	_, tr := s.synthesize("", src, Config{RS: true}, nil)
	if got := strings.Join(tr.Computed, ","); got != "netlist" {
		t.Errorf("RS flip recomputed %q, want only netlist", got)
	}
	if got := strings.Join(tr.Hits, ","); got != "parse,reach,analyze,repair" {
		t.Errorf("RS flip hit %q, want parse,reach,analyze,repair", got)
	}
	_, tr = s.synthesize("", src, Config{MaxModels: 64}, nil)
	if got := strings.Join(tr.Computed, ","); got != "repair,netlist" {
		t.Errorf("MaxModels flip recomputed %q, want repair,netlist", got)
	}
}

// TestEvictionNeverStale hammers a tiny capped cache with a corpus of
// specs under alternating config fingerprints and checks every answer
// against an uncapped oracle server: eviction may cost recomputation,
// never a wrong or stale result.
func TestEvictionNeverStale(t *testing.T) {
	type key struct {
		spec string
		cfg  Config
	}
	var corpus []struct {
		name, src string
	}
	for seed := int64(1); seed <= 5; seed++ {
		sp := benchdata.GenRandomSpec(seed, 2+int(seed)%3)
		corpus = append(corpus, struct{ name, src string }{sp.Net.Name, sp.Net.Format()})
	}
	corpus = append(corpus, struct{ name, src string }{"nak-pa", benchdata.Table1[0].Source})
	configs := []Config{{}, {RS: true}, {MaxModels: 32}}

	oracle := newTestServer(t, Options{})
	expect := map[key]*Result{}
	for _, c := range corpus {
		for _, cfg := range configs {
			res, _ := oracle.synthesize(c.name, c.src, cfg, nil)
			expect[key{c.name, cfg}] = res
		}
	}

	capped := newTestServer(t, Options{CacheEntries: 7})
	for i := 0; i < 3*len(corpus)*len(configs); i++ {
		c := corpus[i%len(corpus)]
		cfg := configs[(i/len(corpus))%len(configs)]
		res, _ := capped.synthesize(c.name, c.src, cfg, nil)
		want := expect[key{c.name, cfg}]
		if res.NetlistSHA != want.NetlistSHA || res.Err != want.Err || res.Verdict != want.Verdict {
			t.Fatalf("iter %d (%s, %+v): capped cache served digest=%q err=%q, oracle says digest=%q err=%q",
				i, c.name, cfg, res.NetlistSHA, res.Err, want.NetlistSHA, want.Err)
		}
		if capped.cache.Len() > 7 {
			t.Fatalf("cache grew past its cap: %d entries", capped.cache.Len())
		}
	}
}

// TestBackpressure429 fills the pool's worker and queue with blocked
// jobs and asserts the next submission is rejected with 429 and a
// Retry-After header.
func TestBackpressure429(t *testing.T) {
	s := newTestServer(t, Options{Shards: 1, Queue: 1})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	block := make(chan struct{})
	t.Cleanup(func() { close(block) }) // runs before the server Close cleanup (LIFO)
	// Occupy the single worker, wait until it is actually running, then
	// fill the single queue slot — TrySubmit only sees a free slot once
	// the worker has dequeued the first task.
	started := make(chan struct{})
	if !s.pool.TrySubmit(func() { close(started); <-block }) {
		t.Fatalf("worker-occupying submission rejected")
	}
	<-started
	if !s.pool.TrySubmit(func() { <-block }) {
		t.Fatalf("queue-filling submission rejected")
	}
	body, _ := json.Marshal(Request{Source: benchdata.Table1[0].Source})
	resp, err := http.Post("http://"+addr+"/synth", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("429 without Retry-After header")
	}
	if got := s.rejected.Value(); got != 1 {
		t.Errorf("serve_rejected_total = %d, want 1", got)
	}
}

// TestHTTPSurface walks the whole API: batch submit with wait, job
// status, result-by-digest (text and JSON), metrics, and the SSE replay
// of a finished job.
func TestHTTPSurface(t *testing.T) {
	s := newTestServer(t, Options{Shards: 2})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}

	// Batch form: two specs in one POST.
	reqs := []Request{
		{Name: "nak-pa", Source: benchdata.Table1[0].Source},
		{Name: benchdata.Table1[1].Name, Source: benchdata.Table1[1].Source},
	}
	body, _ := json.Marshal(reqs)
	resp, err := http.Post("http://"+addr+"/synth?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post batch: %v", err)
	}
	var entries []synthEntry
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatalf("decode batch: %v", err)
	}
	resp.Body.Close()
	if len(entries) != 2 {
		t.Fatalf("batch returned %d entries, want 2", len(entries))
	}
	for i, e := range entries {
		if e.Result == nil || !e.Result.OK {
			t.Fatalf("entry %d: missing or failed result: %+v", i, e)
		}
	}

	// Job status for the first entry.
	var view jobView
	getJSON(t, "http://"+addr+"/job/"+entries[0].Job, &view)
	if view.State != "done" || view.Result == nil {
		t.Errorf("job view: state=%q, want done with result", view.State)
	}

	// Result by digest: text body must be the exact netlist bytes.
	digest := entries[0].Result.NetlistSHA
	rr, err := http.Get("http://" + addr + "/result/" + digest)
	if err != nil {
		t.Fatalf("get result: %v", err)
	}
	text := readAll(t, rr)
	if text != entries[0].Result.Netlist {
		t.Errorf("result text differs from netlist in result payload")
	}
	var full Result
	getJSON(t, "http://"+addr+"/result/"+digest+"?full=1", &full)
	if full.NetlistSHA != digest {
		t.Errorf("full result digest %s, want %s", full.NetlistSHA, digest)
	}

	// Metrics must expose the serve_* families.
	mr, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("get metrics: %v", err)
	}
	metrics := readAll(t, mr)
	for _, want := range []string{"serve_cache_hits_total", "serve_cache_misses_total",
		"serve_stage_computes_total", "serve_queue_depth", "serve_inflight_jobs"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	// SSE replay of a finished job carries the lifecycle events.
	sr, err := http.Get("http://" + addr + "/job/" + entries[0].Job + "?sse=1")
	if err != nil {
		t.Fatalf("get sse: %v", err)
	}
	stream := readAll(t, sr)
	for _, kind := range []string{"job_queued", "job_running", "job_done"} {
		if !strings.Contains(stream, kind) {
			t.Errorf("SSE replay missing %s event", kind)
		}
	}
	if !strings.Contains(stream, digest) {
		t.Errorf("job_done event missing netlist digest")
	}

	// Unknown routes 404.
	nf, err := http.Get("http://" + addr + "/result/deadbeef")
	if err != nil {
		t.Fatalf("get unknown: %v", err)
	}
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Errorf("unknown digest: status %d, want 404", nf.StatusCode)
	}
}

// TestErrorResultsCached pins negative caching: a spec that fails to
// parse, the spec TestPipelineRejectsNonSemiModular rejects (its net is
// not 1-safe, so reach fails), and one whose input a+ disables output
// c+ (analyze fails) each fail with synth's own error text and fail
// identically from cache without recomputing.
func TestErrorResultsCached(t *testing.T) {
	unsafe := ".model bad\n.inputs a\n.outputs c\n.graph\np a+ c+\na+ q\nc+ q\nq a-\na- c-\nc- p2\na- p2\np2 a+\n.marking { p }\n.end\n"
	choice := ".model choice\n.inputs a\n.outputs c\n.graph\np a+ c+\na+ a-\na- p\nc+ c-\nc- p\n.marking { p }\n.end\n"
	for _, src := range []string{"garbage\n", unsafe, choice} {
		_, want := synth.FromSTGSource(src, synth.Options{})
		if want == nil {
			t.Fatalf("%q: direct synthesis unexpectedly succeeded", src)
		}
		s := newTestServer(t, Options{})
		r1, _ := s.synthesize("", src, Config{}, nil)
		r2, tr := s.synthesize("", src, Config{}, nil)
		if r1.Err != want.Error() {
			t.Errorf("%q: served error %q, direct synthesis says %q", src, r1.Err, want)
		}
		if r2.Err != r1.Err {
			t.Errorf("%q: cached error %q differs from cold error %q", src, r2.Err, r1.Err)
		}
		if len(tr.Computed) != 0 {
			t.Errorf("%q: second failing run recomputed %v, want pure cache", src, tr.Computed)
		}
	}
}

// TestFinishedJobsBounded pins the job table's bound: past
// finishedJobs completions the oldest finished jobs are evicted, and
// the most recent one still answers GET /job/{id}.
func TestFinishedJobsBounded(t *testing.T) {
	s := newTestServer(t, Options{Shards: 1})
	src := benchdata.Table1[len(benchdata.Table1)-1].Source // Delement, the smallest
	var first, last *Job
	for i := 0; i < finishedJobs+10; i++ {
		j, ok := s.submit(Request{Source: src})
		if !ok {
			t.Fatalf("job %d rejected", i)
		}
		<-j.done
		if first == nil {
			first = j
		}
		last = j
	}
	s.mu.Lock()
	held := len(s.jobs)
	s.mu.Unlock()
	if held > finishedJobs {
		t.Errorf("job table holds %d jobs, want at most %d", held, finishedJobs)
	}
	if _, ok := s.Job(first.ID); ok {
		t.Errorf("oldest job %s still in the table past the bound", first.ID)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/job/"+last.ID, nil))
	var view jobView
	if err := json.NewDecoder(rec.Body).Decode(&view); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("GET /job/%s: status %d, decode error %v", last.ID, rec.Code, err)
	}
	if view.State != "done" || view.Result == nil || !view.Result.OK {
		t.Errorf("most recent job: state=%q result=%+v, want done and OK", view.State, view.Result)
	}
}

func postSynth(t *testing.T, addr string, req Request) synthEntry {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post("http://"+addr+"/synth?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post status %d", resp.StatusCode)
	}
	var e synthEntry
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return e
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("get %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return string(b)
}

// TestTraceAccounting checks a warm run reports all five stages as
// hits and no computes.
func TestTraceAccounting(t *testing.T) {
	s := newTestServer(t, Options{})
	src := benchdata.Table1[2].Source
	s.synthesize("", src, Config{}, nil)
	_, tr := s.synthesize("", src, Config{}, nil)
	if len(tr.Hits) != len(Stages) || len(tr.Computed) != 0 || len(tr.Coalesced) != 0 {
		t.Errorf("warm trace hits=%v computed=%v coalesced=%v, want all-hit", tr.Hits, tr.Computed, tr.Coalesced)
	}
}
