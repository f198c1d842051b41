package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/par"
)

// Options configures a synthesis server.
type Options struct {
	// Shards is the number of pipeline workers (0 = GOMAXPROCS). The
	// byte-identical-netlist guarantee holds at any shard count: shards
	// only decide which goroutine runs a job, never what it computes.
	Shards int
	// Queue bounds jobs waiting beyond the running ones; a full queue
	// rejects submissions with 429 (0 = 2×Shards).
	Queue int
	// CacheEntries caps the stage cache (0 = DefaultCacheEntries).
	CacheEntries int
	// JobWorkers is the repair worker count per job (0 = 1: shards
	// already supply cross-request parallelism).
	JobWorkers int
	// Obs receives the server's metrics. Nil falls back to the global
	// observer, or a private registry when observation is off — the
	// /metrics endpoint works either way.
	Obs *obs.Observer
}

// jobRing bounds each job's buffered progress events.
const jobRing = 1024

// finishedJobs bounds how many finished jobs stay pollable by id. A
// finished job keeps its result and progress-event ring alive, so an
// unbounded table would grow the heap with every request for the life
// of the server. A polling client still finds its job while fewer than
// finishedJobs later jobs have finished; ?wait=1 callers hold the *Job
// itself and never look it up.
const finishedJobs = 4096

// Server is the synthesis service: the stage cache, the singleflight
// table, the sharded job pool and the HTTP surface. It is also an
// obs.Sink — attach it to the active observer with AddSink and every
// pipeline event tagged with a job's spec streams out on that job's
// SSE feed.
type Server struct {
	opts    Options
	o       *obs.Observer
	cache   *Cache
	flights *flightGroup
	pool    *par.Pool

	computes  map[string]*obs.Counter // serve_stage_computes_total per stage
	coalesced *obs.Counter            // serve_coalesced_total
	requests  *obs.Counter            // serve_requests_total
	rejected  *obs.Counter            // serve_rejected_total
	queueGa   *obs.Gauge              // serve_queue_depth
	inflight  *obs.Gauge              // serve_inflight_jobs

	mu       sync.Mutex
	jobs     map[string]*Job
	finished []string           // finished job ids, oldest first (at most finishedJobs)
	active   map[string][]*Job  // spec name → running jobs (SSE routing)
	results  map[string]*Result // netlist sha-256 → result
	nextID   int64
	running  int
	closed   bool

	mux *http.ServeMux
	hs  *http.Server
	ln  net.Listener
}

// Request is one synthesis submission. POST /synth accepts a single
// Request or a JSON array of them.
type Request struct {
	// Name labels the job; empty defaults to the parsed STG's name.
	Name string `json:"name,omitempty"`
	// Source is the .g specification text.
	Source string `json:"source"`
	// Config selects the synthesis configuration.
	Config Config `json:"config"`
}

// Job is one submitted synthesis: its lifecycle state, its result once
// done, and a bounded ring of progress events for SSE watchers.
type Job struct {
	ID     string
	Name   string // request-supplied label
	Spec   string // parsed STG name, set once parse resolves
	Config Config
	State  string // "queued", "running", "done"
	Result *Result
	Trace  *Trace

	mu   sync.Mutex
	ring [][]byte
	subs map[chan []byte]struct{}
	done chan struct{}
}

// jobView is the JSON shape of GET /job/{id}.
type jobView struct {
	ID     string  `json:"id"`
	Name   string  `json:"name,omitempty"`
	Spec   string  `json:"spec,omitempty"`
	Config Config  `json:"config"`
	State  string  `json:"state"`
	Result *Result `json:"result,omitempty"`
	Trace  *Trace  `json:"trace,omitempty"`
}

// New builds a server. Call Start to listen, or route tests through
// Handler directly.
func New(opts Options) *Server {
	o := opts.Obs
	if o == nil {
		o = obs.Get()
	}
	if o == nil {
		o = obs.New(nil)
	}
	shards := par.Workers(opts.Shards)
	queue := opts.Queue
	if queue <= 0 {
		queue = 2 * shards
	}
	s := &Server{
		opts:      opts,
		o:         o,
		cache:     NewCache(opts.CacheEntries, o.Metrics),
		flights:   newFlightGroup(),
		pool:      par.NewPool(shards, queue),
		computes:  map[string]*obs.Counter{},
		coalesced: o.Metrics.Counter("serve_coalesced_total"),
		requests:  o.Metrics.Counter("serve_requests_total"),
		rejected:  o.Metrics.Counter("serve_rejected_total"),
		queueGa:   o.Metrics.Gauge("serve_queue_depth"),
		inflight:  o.Metrics.Gauge("serve_inflight_jobs"),
		jobs:      map[string]*Job{},
		active:    map[string][]*Job{},
		results:   map[string]*Result{},
		mux:       http.NewServeMux(),
	}
	for _, st := range Stages {
		s.computes[st] = o.Metrics.Counter("serve_stage_computes_total", "stage", st)
	}
	s.cache.onEvict = func(stage, _ string, val any) {
		if stage != "netlist" {
			return
		}
		if res, ok := val.(*Result); ok && res.NetlistSHA != "" {
			s.mu.Lock()
			delete(s.results, res.NetlistSHA)
			s.mu.Unlock()
		}
	}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/synth", s.handleSynth)
	s.mux.HandleFunc("/job/", s.handleJob)
	s.mux.HandleFunc("/result/", s.handleResult)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// Observer returns the observer the server registers its metrics on.
func (s *Server) Observer() *obs.Observer { return s.o }

// Cache exposes the stage cache (tests assert on its counters).
func (s *Server) Cache() *Cache { return s.cache }

// Handler returns the server's HTTP handler for embedding and tests.
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (host:port; port 0 works) and serves in the
// background, returning the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.hs = &http.Server{Handler: s.mux}
	go s.hs.Serve(ln) //reprolint:go long-lived HTTP accept loop owned by the server; lifecycle bounded by Close
	return ln.Addr().String(), nil
}

// Close drains the server: intake stops, queued and running jobs finish,
// SSE streams end, the listener closes. Safe to call twice.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.pool.Close() // waits for every accepted job
	var err error
	if s.hs != nil {
		err = s.hs.Close()
	}
	return err
}

// Publish implements obs.Sink: pipeline events tagged with a spec name
// are routed to every running job synthesizing that spec.
func (s *Server) Publish(ev obs.Event) {
	if ev.Spec == "" {
		return
	}
	s.mu.Lock()
	jobs := append([]*Job(nil), s.active[ev.Spec]...)
	s.mu.Unlock()
	if len(jobs) == 0 {
		return
	}
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	for _, j := range jobs {
		j.deliver(data)
	}
}

// deliver appends one encoded event to the job's replay ring and fans
// it out to subscribers without blocking.
func (j *Job) deliver(data []byte) {
	j.mu.Lock()
	if len(j.ring) >= jobRing {
		j.ring = append(j.ring[:0:0], j.ring[len(j.ring)-jobRing/2:]...)
	}
	j.ring = append(j.ring, data)
	for ch := range j.subs { //reprolint:ordered fan-out order is invisible: every subscriber gets every event
		select {
		case ch <- data:
		default:
		}
	}
	j.mu.Unlock()
}

// event delivers a synthetic job-lifecycle event (job_queued,
// job_running, job_done) to the job's own stream.
func (j *Job) event(kind string, fields map[string]any) {
	data, err := json.Marshal(obs.Event{Kind: kind, Spec: j.Spec, Fields: fields})
	if err != nil {
		return
	}
	j.deliver(data)
}

// subscribe attaches an SSE consumer to the job, replaying the ring.
// The channel closes when the job finishes.
func (j *Job) subscribe() (chan []byte, [][]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	select {
	case <-j.done:
		return nil, append([][]byte(nil), j.ring...), false
	default:
	}
	ch := make(chan []byte, jobRing)
	j.subs[ch] = struct{}{}
	return ch, append([][]byte(nil), j.ring...), true
}

func (j *Job) unsubscribe(ch chan []byte) {
	j.mu.Lock()
	if _, ok := j.subs[ch]; ok {
		delete(j.subs, ch)
		close(ch)
	}
	j.mu.Unlock()
}

// finish marks the job done and closes every subscriber stream.
func (j *Job) finish() {
	j.mu.Lock()
	for ch := range j.subs { //reprolint:ordered close order is invisible: each channel closes exactly once
		close(ch)
	}
	j.subs = map[chan []byte]struct{}{}
	j.mu.Unlock()
	close(j.done)
}

// submit queues one request. The false return is backpressure: the
// queue is full (or the server closed) and the caller should retry.
func (s *Server) submit(req Request) (*Job, bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false
	}
	s.nextID++
	j := &Job{
		ID:     fmt.Sprintf("j%06d", s.nextID),
		Name:   req.Name,
		Config: req.Config,
		State:  "queued",
		subs:   map[chan []byte]struct{}{},
		done:   make(chan struct{}),
	}
	s.jobs[j.ID] = j
	s.mu.Unlock()

	// Queue the event before the hand-off: once the pool holds the job,
	// its worker owns j.Spec and emits job_running.
	j.event("job_queued", map[string]any{"id": j.ID})
	if !s.pool.TrySubmit(func() { s.runJob(j, req.Source) }) {
		s.mu.Lock()
		delete(s.jobs, j.ID)
		s.nextID--
		s.mu.Unlock()
		s.rejected.Add(1)
		return nil, false
	}
	s.requests.Add(1)
	s.queueGa.Set(int64(s.pool.Depth()))
	return j, true
}

// runJob executes one job on a pool shard: resolve the pipeline
// (cache-assembled or computed), publish lifecycle + journal events,
// record the result.
func (s *Server) runJob(j *Job, source string) {
	s.mu.Lock()
	j.State = "running"
	s.running++
	running := s.running
	s.mu.Unlock()
	s.inflight.Set(int64(running))
	j.event("job_running", map[string]any{"id": j.ID})

	res, tr := s.synthesize(j.Name, source, j.Config, func(spec string) {
		s.mu.Lock()
		j.Spec = spec
		s.active[spec] = append(s.active[spec], j)
		s.mu.Unlock()
		journal.PublishRunStart(spec, Canonicalize(source), journal.RunConfig{
			RepairWorkers: s.jobWorkers(),
			MaxModels:     j.Config.MaxModels,
			RS:            j.Config.RS,
			Share:         j.Config.Share,
		})
	})
	if j.Spec != "" {
		journal.PublishRunEnd(j.Spec, res.Netlist, len(res.Added), res.Verdict, res.OK)
	}

	s.mu.Lock()
	j.Result, j.Trace, j.State = res, tr, "done"
	s.running--
	running = s.running
	s.finished = append(s.finished, j.ID)
	if len(s.finished) > finishedJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
	if j.Spec != "" {
		live := s.active[j.Spec][:0]
		for _, other := range s.active[j.Spec] {
			if other != j {
				live = append(live, other)
			}
		}
		if len(live) == 0 {
			delete(s.active, j.Spec)
		} else {
			s.active[j.Spec] = live
		}
	}
	s.mu.Unlock()
	s.inflight.Set(int64(running))
	s.queueGa.Set(int64(s.pool.Depth() - 1)) // this job is still counted until runJob returns

	j.event("job_done", map[string]any{
		"id": j.ID, "ok": res.OK, "netlist_sha256": res.NetlistSHA,
		"hits": len(tr.Hits), "computed": len(tr.Computed), "coalesced": len(tr.Coalesced),
	})
	j.finish()
}

// indexResult records a finished netlist under its digest for
// GET /result/{digest}. The index follows the cache: netlist-stage
// eviction removes the entry.
func (s *Server) indexResult(res *Result) {
	if res == nil || res.NetlistSHA == "" {
		return
	}
	s.mu.Lock()
	s.results[res.NetlistSHA] = res
	s.mu.Unlock()
}

// Job looks a job up by id.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "mcsyn synthesis service\n\n"+
		"  POST /synth            submit a spec (single or batch array); ?wait=1 blocks for results\n"+
		"  GET  /job/{id}         job status; ?sse=1 streams progress events\n"+
		"  GET  /result/{digest}  cached netlist by sha-256; ?full=1 for the JSON result\n"+
		"  GET  /metrics          Prometheus text metrics\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.queueGa.Set(int64(s.pool.Depth()))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.o.Metrics.WritePrometheus(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// synthEntry is one element of the POST /synth response.
type synthEntry struct {
	Job      string  `json:"job,omitempty"`
	Status   string  `json:"status_url,omitempty"`
	Rejected bool    `json:"rejected,omitempty"`
	Error    string  `json:"error,omitempty"`
	Result   *Result `json:"result,omitempty"`
	Trace    *Trace  `json:"trace,omitempty"`
}

// handleSynth accepts a single Request or a JSON array of Requests.
// Without ?wait=1 it queues and returns job ids (202); with it, it
// blocks until every accepted job completes and returns results
// inline. A full queue rejects with 429 + Retry-After (batch form:
// per-entry "rejected" flags; 429 only when nothing was accepted).
func (s *Server) handleSynth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	batch := false
	var reqs []Request
	trimmed := strings.TrimSpace(string(body))
	if strings.HasPrefix(trimmed, "[") {
		batch = true
		if err := json.Unmarshal(body, &reqs); err != nil {
			http.Error(w, "bad batch: "+err.Error(), http.StatusBadRequest)
			return
		}
	} else {
		var req Request
		if err := json.Unmarshal(body, &req); err != nil {
			http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
			return
		}
		reqs = []Request{req}
	}
	if len(reqs) == 0 {
		http.Error(w, "empty batch", http.StatusBadRequest)
		return
	}

	entries := make([]synthEntry, len(reqs))
	jobs := make([]*Job, len(reqs))
	accepted := 0
	for i, req := range reqs {
		if strings.TrimSpace(req.Source) == "" {
			entries[i] = synthEntry{Error: "empty source"}
			continue
		}
		j, ok := s.submit(req)
		if !ok {
			entries[i] = synthEntry{Rejected: true, Error: "queue full"}
			continue
		}
		jobs[i] = j
		entries[i] = synthEntry{Job: j.ID, Status: "/job/" + j.ID}
		accepted++
	}

	if accepted == 0 && allRejected(entries) {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, payload(batch, entries))
		return
	}

	wait := r.URL.Query().Get("wait") == "1"
	status := http.StatusAccepted
	if wait {
		for i, j := range jobs {
			if j == nil {
				continue
			}
			select {
			case <-j.done:
				entries[i].Result, entries[i].Trace = j.Result, j.Trace
			case <-r.Context().Done():
				return
			}
		}
		status = http.StatusOK
	}
	writeJSON(w, status, payload(batch, entries))
}

func allRejected(entries []synthEntry) bool {
	for _, e := range entries {
		if !e.Rejected {
			return false
		}
	}
	return true
}

func payload(batch bool, entries []synthEntry) any {
	if batch {
		return entries
	}
	return entries[0]
}

// handleJob serves job status as JSON, or the job's progress event
// stream as SSE when the client asks for text/event-stream (or ?sse=1).
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/job/")
	j, ok := s.Job(id)
	if !ok {
		http.NotFound(w, r)
		return
	}
	if r.URL.Query().Get("sse") == "1" || strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.streamJob(w, r, j)
		return
	}
	s.mu.Lock()
	view := jobView{ID: j.ID, Name: j.Name, Spec: j.Spec, Config: j.Config,
		State: j.State, Result: j.Result, Trace: j.Trace}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

// streamJob replays the job's event ring and follows live events until
// the job finishes or the client disconnects.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, j *Job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	ch, backlog, live := j.subscribe()
	if live {
		defer j.unsubscribe(ch)
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	for _, data := range backlog {
		if writeSSE(w, data) != nil {
			return
		}
	}
	fl.Flush()
	if !live {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case data, ok := <-ch:
			if !ok {
				return
			}
			if writeSSE(w, data) != nil {
				return
			}
			fl.Flush()
		}
	}
}

// handleResult serves a finished netlist by its sha-256 digest: the
// netlist text by default, the full JSON result with ?full=1.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	digest := strings.TrimPrefix(r.URL.Path, "/result/")
	s.mu.Lock()
	res, ok := s.results[digest]
	s.mu.Unlock()
	if !ok {
		http.NotFound(w, r)
		return
	}
	if r.URL.Query().Get("full") == "1" {
		writeJSON(w, http.StatusOK, res)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, res.Netlist)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeSSE(w http.ResponseWriter, data []byte) error {
	if _, err := w.Write([]byte("data: ")); err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	_, err := w.Write([]byte("\n\n"))
	return err
}
