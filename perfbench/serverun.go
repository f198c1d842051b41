package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/benchdata"
	"repro/internal/encode"
	"repro/internal/serve"
	"repro/internal/synth"
)

// serve_mix shape. One closed-loop client sends blocks of ten
// requests: seven Table-1 replays, two fresh specs and one RS/Share
// flip of a fresh spec it already sent, in a seeded order. Every seed
// therefore sends the same number of each kind, so the hit and miss
// classes have the same sizes at every seed. One client keeps at most
// one request in flight: with more clients than the machine has cores
// free beside the server, request latency measures how the scheduler
// shares the cores, not the server.
const (
	blockReplays    = 7   // Table-1 replays per block: every stage a cache hit
	blockFresh      = 2   // fresh specs per block: every stage computed
	blockSize       = 10  // blockReplays + blockFresh + one flip
	freshSpecSize   = 10  // GenRandomSpec size of a fresh spec
	blocksPerSecond = 180 // calibrated like passesPerSecond
)

type reqKind int8

const (
	replay reqKind = iota // a Table-1 spec, primed before the run
	fresh                 // a spec the server has not seen
	flip                  // a fresh spec already sent, with RS or Share set
)

// request is one serve_mix operation: what to send and what the answer
// must match.
type request struct {
	kind   reqKind
	name   string
	source string
	cfg    serve.Config
	want   outcome // filled for replays from expected.json, for misses after the run
}

// serveSequence builds the client's request list for a seed.
func serveSequence(seed int64, blocks int) []request {
	rng := rand.New(rand.NewSource(seed))
	var seq []request
	var unflipped []request // fresh specs sent and not yet flipped, newest last
	nextFresh := 0
	for b := 0; b < blocks; b++ {
		slots := rng.Perm(blockSize)
		kinds := make([]reqKind, blockSize)
		for i, s := range slots {
			switch {
			case i < blockReplays:
				kinds[s] = replay
			case i < blockReplays+blockFresh:
				kinds[s] = fresh
			default:
				kinds[s] = flip
			}
		}
		if b == 0 {
			// The first flip needs a fresh spec before it.
			for i, k := range kinds {
				if k == fresh {
					break
				}
				if k == flip {
					j := i + 1
					for kinds[j] != fresh {
						j++
					}
					kinds[i], kinds[j] = kinds[j], kinds[i]
					break
				}
			}
		}
		for _, k := range kinds {
			switch k {
			case replay:
				e := benchdata.Table1[rng.Intn(len(benchdata.Table1))]
				seq = append(seq, request{kind: replay, name: e.Name, source: e.Source})
			case fresh:
				// Each fresh spec has a spec seed of its own, so no two
				// requests of a run share a spec by accident.
				specSeed := seed<<32 | int64(nextFresh)
				nextFresh++
				rs := benchdata.GenRandomSpec(specSeed, freshSpecSize)
				r := request{kind: fresh, name: rs.Net.Name, source: rs.Net.Format()}
				seq = append(seq, r)
				unflipped = append(unflipped, r)
			case flip:
				// The newest unflipped spec: its repair entry is recent,
				// so the flip finds it cached, and no spec is flipped
				// twice, so no flip is a full hit.
				r := unflipped[len(unflipped)-1]
				unflipped = unflipped[:len(unflipped)-1]
				r.kind = flip
				if rng.Intn(2) == 0 {
					r.cfg.RS = true
				} else {
					r.cfg.Share = true
				}
				seq = append(seq, r)
			}
		}
	}
	return seq
}

// child is a running `mcsyn -serve` process.
type child struct {
	cmd    *exec.Cmd
	base   string        // http://host:port
	logged chan struct{} // closed once the child's stderr reaches EOF
}

// startServer starts mcsyn -serve on a free loopback port and returns
// once /metrics answers.
func startServer(mcsyn string, hc *http.Client) (*child, error) {
	cmd := exec.Command(mcsyn, "-serve", "127.0.0.1:0")
	cmd.SysProcAttr = orphanKill()
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start mcsyn: %w", err)
	}
	c := &child{cmd: cmd, logged: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(c.logged)
		const marker = "synthesis service on http://"
		sent := false
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, marker); i >= 0 && !sent {
				host, _, _ := strings.Cut(line[i+len(marker):], " ")
				addr <- host
				sent = true
				continue
			}
			if !strings.Contains(line, "draining and flushing") {
				fmt.Fprintln(os.Stderr, line)
			}
		}
	}()
	select {
	case host := <-addr:
		c.base = "http://" + host
	case <-time.After(30 * time.Second):
		c.kill()
		return nil, fmt.Errorf("mcsyn -serve printed no address within 30s")
	}
	for start := time.Now(); ; time.Sleep(2 * time.Millisecond) {
		resp, err := hc.Get(c.base + "/metrics")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		if time.Since(start) > 30*time.Second {
			c.kill()
			return nil, fmt.Errorf("mcsyn -serve: /metrics not ready within 30s")
		}
	}
}

// kill ends the child without a drain and waits for it. Its errors
// only say the child had exited already, which is the goal.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	<-c.logged
	_ = c.cmd.Wait()
}

// stop sends SIGTERM and waits for the drain. mcsyn exits 130 after a
// signal-initiated drain; 0 is accepted too. Any other code, a death by
// signal, or no exit within 30s fails the check.
func (c *child) stop() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		c.kill()
		return fmt.Errorf("signal mcsyn: %w", err)
	}
	select {
	case <-c.logged:
	case <-time.After(30 * time.Second):
		c.kill()
		return fmt.Errorf("mcsyn did not drain within 30s of SIGTERM")
	}
	_ = c.cmd.Wait() // its error restates the exit status checked here
	if code := c.cmd.ProcessState.ExitCode(); code != 0 && code != 130 {
		return fmt.Errorf("mcsyn exited with %s after SIGTERM", c.cmd.ProcessState)
	}
	return nil
}

// reply is the part of a POST /synth?wait=1 answer the checks use.
type reply struct {
	Result *struct {
		NetlistSHA     string   `json:"netlist_sha256"`
		Added          []string `json:"added"`
		SpecStates     int      `json:"spec_states"`
		ComposedStates int      `json:"composed_states"`
		OK             bool     `json:"ok"`
		Err            string   `json:"error"`
	} `json:"result"`
	Trace *serve.Trace `json:"trace"`
}

// answer is one completed request, as the client saw it.
type answer struct {
	start   time.Time
	latency time.Duration // encode, round trip and decode
	own     time.Duration // encode and decode alone: the harness's own time
	hit     bool          // the trace lists no computed stage
	full    bool          // the trace lists every stage as a cache hit
	got     outcome
	err     error
}

// post sends one request and decodes the answer.
func post(hc *http.Client, base string, r request) answer {
	t0 := time.Now()
	body, err := json.Marshal(serve.Request{Name: r.name, Source: r.source, Config: r.cfg})
	if err != nil {
		return answer{start: t0, err: err}
	}
	t1 := time.Now()
	resp, err := hc.Post(base+"/synth?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return answer{start: t0, latency: time.Since(t0), err: err}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t2 := time.Now()
	if err != nil {
		return answer{start: t0, latency: t2.Sub(t0), err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return answer{start: t0, latency: t2.Sub(t0), err: fmt.Errorf("HTTP %d", resp.StatusCode)}
	}
	var rep reply
	err = json.Unmarshal(data, &rep)
	t3 := time.Now()
	a := answer{start: t0, latency: t3.Sub(t0), own: t1.Sub(t0) + t3.Sub(t2)}
	switch {
	case err != nil:
		a.err = fmt.Errorf("bad reply: %w", err)
	case rep.Result == nil || rep.Trace == nil:
		a.err = fmt.Errorf("reply has no result or trace")
	case !rep.Result.OK || rep.Result.Err != "":
		a.err = fmt.Errorf("not verified: %s", rep.Result.Err)
	default:
		a.hit = len(rep.Trace.Computed) == 0
		a.full = len(rep.Trace.Hits) == len(serve.Stages)
		a.got = outcome{
			SHA:      rep.Result.NetlistSHA,
			Added:    len(rep.Result.Added),
			States:   rep.Result.SpecStates,
			Composed: rep.Result.ComposedStates,
		}
	}
	return a
}

// primed starts a server and sends it every Table-1 spec once, checking
// each answer. The wall time is one set-up.
func primed(cfg *config, hc *http.Client, rec *record, t *tally) (*child, time.Duration, error) {
	t0 := time.Now()
	c, err := startServer(cfg.mcsyn, hc)
	if err != nil {
		return nil, 0, err
	}
	for _, e := range benchdata.Table1 {
		a := post(hc, c.base, request{name: e.Name, source: e.Source})
		if a.err == nil {
			a.err = a.got.mismatch(rec.Table1[e.Name])
		}
		t.record("prime "+e.Name, a.err)
	}
	return c, time.Since(t0), nil
}

// runServe runs the serve_mix workload against a child mcsyn -serve.
func runServe(cfg *config) (*result, error) {
	if cfg.mcsyn == "" {
		return nil, fmt.Errorf("serve_mix needs -mcsyn")
	}
	rec, err := loadRecord()
	if err != nil {
		return nil, err
	}
	seq := serveSequence(cfg.seed, max(1, cfg.seconds*blocksPerSecond))
	for i := range seq {
		if seq[i].kind == replay {
			seq[i].want = rec.Table1[seq[i].name]
		}
	}
	hc := &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()

	var t tally
	walls := make([]float64, runWindows)
	srv, wall, err := primed(cfg, hc, rec, &t)
	if err != nil {
		return nil, err
	}
	walls[0] = wall.Seconds()
	var before map[string]float64
	if cfg.trace {
		if before, err = scrape(hc, srv.base); err != nil {
			srv.kill()
			return nil, err
		}
	}

	// The client runs one window at a time. Between windows, while the
	// serving child idles, another set-up starts, primes and drains a
	// second child, so set-ups and windows sample the same stretches of
	// machine time.
	answers := make([]answer, len(seq))
	blocks := len(seq) / blockSize
	t0 := time.Now()
	for w := 0; w < runWindows; w++ {
		if w > 0 {
			probe, wall, err := primed(cfg, hc, rec, &t)
			if err != nil {
				srv.kill()
				return nil, err
			}
			walls[w] = wall.Seconds()
			t.record("drain after set-up", probe.stop())
		}
		lo, hi := windowBounds(w, blocks)
		for i := lo * blockSize; i < hi*blockSize; i++ {
			if time.Now().After(cfg.deadline()) {
				answers[i] = answer{err: fmt.Errorf("not started before the run deadline")}
				continue
			}
			answers[i] = post(hc, srv.base, seq[i])
		}
	}
	wall = time.Since(t0)

	rss, err := peakRSSMB(strconv.Itoa(srv.cmd.Process.Pid))
	if err != nil {
		srv.kill()
		return nil, err
	}
	var after map[string]float64
	if cfg.trace {
		if after, err = scrape(hc, srv.base); err != nil {
			srv.kill()
			return nil, err
		}
	}
	t.record("drain after run", srv.stop())

	res := &result{}
	var layerRec *recorder
	var untraced latencies
	if cfg.trace {
		layerRec = newRecorder(len(seq) * blockFresh / blockSize)
	}
	own, nHits, nMisses := checkAnswers(seq, answers, layerRec, &untraced, &t)
	all, hits, misses, rates := serveWindows(answers)

	if cfg.trace {
		layerRec.report(res, untraced.meanMS())
		if err := layerRec.writeSpans(spanFile(cfg)); err != nil {
			return nil, err
		}
		setServeLayers(res, before, after, answers)
		res.set("driver.ms_per_op", "ms", float64(own)/1e6/float64(nHits+nMisses))
	} else {
		res.set("setup_s", "s", median(walls))
		res.set("ops_per_s", "1/s", median(rates))
		setLatencyMetrics(res, "", all)
		setLatencyMetrics(res, "hit_", hits)
		setLatencyMetrics(res, "miss_", misses)
		res.set("peak_rss_mb", "MB", rss)
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.failed == 0
	fmt.Fprintf(os.Stderr, "perfbench: serve_mix seed %d: %d requests (%d hits, %d misses) in %.2fs, %d checked, %d failed\n",
		cfg.seed, nHits+nMisses, nHits, nMisses, wall.Seconds(), t.attempted, t.failed)
	return res, nil
}

// checkAnswers checks every answer against what its request must
// return, storing the verdict in the answer, and returns the harness's
// own time and the hit and miss counts.
func checkAnswers(seq []request, answers []answer, rec *recorder, untraced *latencies, t *tally) (own time.Duration, nHits, nMisses int) {
	for i, r := range seq {
		a := &answers[i]
		if a.err == nil && r.kind != replay {
			r.want, a.err = expectMiss(r, a.got, rec, untraced)
		}
		if a.err == nil {
			a.err = a.got.mismatch(r.want)
		}
		t.record(fmt.Sprintf("request %d (%s)", i, r.name), a.err)
		own += a.own
		if a.hit {
			nHits++
		} else {
			nMisses++
		}
	}
	return own, nHits, nMisses
}

// serveWindows cuts the answers into runWindows windows of whole blocks
// and returns, per window, the latencies of all requests, of hits and
// of misses, and the rate of correct answers over the window's wall
// time.
func serveWindows(answers []answer) (all, hits, misses []latencies, rates []float64) {
	all = make([]latencies, runWindows)
	hits = make([]latencies, runWindows)
	misses = make([]latencies, runWindows)
	rates = make([]float64, runWindows)
	blocks := len(answers) / blockSize
	for w := 0; w < runWindows; w++ {
		lo, hi := windowBounds(w, blocks)
		correct := 0
		var first, last time.Time
		for _, a := range answers[lo*blockSize : hi*blockSize] {
			if a.latency == 0 {
				continue
			}
			if first.IsZero() {
				first = a.start
			}
			last = a.start.Add(a.latency)
			all[w] = append(all[w], a.latency)
			if a.hit {
				hits[w] = append(hits[w], a.latency)
			} else {
				misses[w] = append(misses[w], a.latency)
			}
			if a.err == nil {
				correct++
			}
		}
		if busy := last.Sub(first); busy > 0 {
			rates[w] = float64(correct) / busy.Seconds()
		}
	}
	return all, hits, misses, rates
}

// expectMiss synthesizes a missed request in process, the way the CLI
// would with the server's one repair worker, and returns the outcome
// the server's answer must match. With a recorder (the traced run) a
// fresh spec also goes through the layer calls, and that netlist must
// match the server's too.
func expectMiss(r request, got outcome, rec *recorder, untraced *latencies) (outcome, error) {
	t0 := time.Now()
	rep, err := synth.FromSTGSource(r.source, synth.Options{RS: r.cfg.RS, Share: r.cfg.Share, Parallel: 1})
	d := time.Since(t0)
	if err != nil {
		return outcome{}, fmt.Errorf("in-process synthesis: %w", err)
	}
	want, err := outcomeOf(rep)
	if err != nil || rec == nil || r.kind != fresh {
		return want, err
	}
	*untraced = append(*untraced, d)
	o, err := rec.synth(rec.ops, r.source, encode.Options{Workers: 1})
	if err == nil && o.SHA != got.SHA {
		err = fmt.Errorf("traced netlist sha-256 %.12s… differs from the served %.12s…", o.SHA, got.SHA)
	}
	return want, err
}

// scrape reads the server's counters from /metrics.
func scrape(hc *http.Client, base string) (map[string]float64, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	vals := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		vals[name] = v
	}
	return vals, sc.Err()
}

// setServeLayers sets the server's per-layer metrics from the counter
// deltas over the run and the answers' traces; with no counters and no
// answers every metric is 0.
func setServeLayers(res *result, before, after map[string]float64, answers []answer) {
	delta := func(name string) float64 { return after[name] - before[name] }
	for _, st := range serve.Stages {
		h := delta(`serve_cache_hits_total{stage="` + st + `"}`)
		m := delta(`serve_cache_misses_total{stage="` + st + `"}`)
		v := 0.0
		if h+m > 0 {
			v = h / (h + m)
		}
		res.set("serve.hit_ratio."+st, "ratio", v)
	}
	full := 0
	for _, a := range answers {
		if a.full {
			full++
		}
	}
	res.set("serve.full_hit_share", "ratio", ratio(int64(full), int64(len(answers))))
	res.set("serve.coalesced", "count", delta("serve_coalesced_total"))
	res.set("serve.rejected", "count", delta("serve_rejected_total"))
}
