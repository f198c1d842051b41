package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/benchdata"
	"repro/internal/serve"
	"repro/internal/stg"
)

func ms(v ...float64) latencies {
	l := make(latencies, len(v))
	for i, x := range v {
		l[i] = time.Duration(x * 1e6)
	}
	return l
}

func TestGeomean(t *testing.T) {
	for _, c := range []struct {
		l    latencies
		want float64
	}{
		{ms(1, 4), 2},
		{ms(2, 2, 2), 2},
		{ms(0.5, 8, 1, 2), 1.6817928305074290},
	} {
		if got := c.l.geomeanMS(); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("geomean(%v) = %v, want %v", c.l, got, c.want)
		}
	}
}

func TestPercentilesAreNearestRank(t *testing.T) {
	l := ms(5, 1, 4, 2, 3, 10, 9, 8, 7, 6) // unsorted on purpose
	if got := l.pctMS(0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := l.pctMS(0.9); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if l[0] != 5*time.Millisecond {
		t.Error("pctMS sorted its receiver in place")
	}
}

func TestWindowsCoverEveryUnitOnce(t *testing.T) {
	for _, n := range []int{1, 9, 10, 37, 165} {
		next := 0
		for w := 0; w < runWindows; w++ {
			lo, hi := windowBounds(w, n)
			if lo != next || hi < lo {
				t.Fatalf("n=%d window %d = [%d,%d), want it to start at %d", n, w, lo, hi, next)
			}
			next = hi
		}
		if next != n {
			t.Fatalf("n=%d: windows end at %d", n, next)
		}
	}
}

// A slow stretch covering fewer than half the windows leaves the
// reported median where the other windows put it.
func TestMedianWindowIgnoresASlowStretch(t *testing.T) {
	var wins []latencies
	for w := 0; w < runWindows; w++ {
		x := 10.0
		if w < 4 {
			x = 30
		}
		wins = append(wins, ms(x, x, x))
	}
	var r result
	setLatencyMetrics(&r, "", wins)
	if got := r.Metrics["latency_ms_p50"].Value; got != 10 {
		t.Errorf("median-window p50 = %v, want 10", got)
	}
}

func TestServeSequenceShape(t *testing.T) {
	const blocks = 40
	names := map[string]bool{}
	for _, seed := range []int64{1, 2} {
		seq := serveSequence(seed, blocks)
		if len(seq) != blocks*blockSize {
			t.Fatalf("seed %d: %d requests, want %d", seed, len(seq), blocks*blockSize)
		}
		sent := map[string]bool{}
		flipped := map[string]bool{}
		for b := 0; b < blocks; b++ {
			n := map[reqKind]int{}
			for _, r := range seq[b*blockSize : (b+1)*blockSize] {
				n[r.kind]++
				switch r.kind {
				case fresh:
					if names[r.name] {
						t.Fatalf("seed %d: fresh spec %s sent twice", seed, r.name)
					}
					names[r.name], sent[r.name] = true, true
				case flip:
					if !sent[r.name] || flipped[r.name] || r.cfg.RS == r.cfg.Share {
						t.Fatalf("seed %d: bad flip of %s (%+v)", seed, r.name, r.cfg)
					}
					flipped[r.name] = true
				}
			}
			if n[replay] != blockReplays || n[fresh] != blockFresh || n[flip] != 1 {
				t.Fatalf("seed %d block %d: kinds %v", seed, b, n)
			}
		}
	}
}

func TestOpSequencePassesArePermutations(t *testing.T) {
	seq := opSequence(9, 5, 3)
	for p := 0; p < 5; p++ {
		pass := append([]int(nil), seq[p*9:(p+1)*9]...)
		sort.Ints(pass)
		for i, v := range pass {
			if v != i {
				t.Fatalf("pass %d is not a permutation: %v", p, seq[p*9:(p+1)*9])
			}
		}
	}
}

// The wide seed rewires branches only: every seed builds state graphs
// of the same sizes, so every seed does the same work per pass.
func TestWideSeedKeepsStateCounts(t *testing.T) {
	states := func(seed int64) []int {
		ins, err := workloadInputs("wide", seed)
		if err != nil {
			t.Fatal(err)
		}
		var n []int
		for _, in := range ins {
			net, err := stg.Parse(in.Source)
			if err != nil {
				t.Fatal(err)
			}
			g, err := stg.BuildSG(net)
			if err != nil {
				t.Fatal(err)
			}
			n = append(n, g.NumStates())
		}
		return n
	}
	a, b := states(1), states(2)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("seed 1 states %v, seed 2 states %v", a, b)
	}
}

// expected.json must hold the paper's Table-1 counts: inserted signals
// and composed states of the verified circuit.
func TestRecordHasPublishedTable1Counts(t *testing.T) {
	published := map[string][2]int{
		"nak-pa": {1, 67}, "nowick": {1, 55}, "duplicator": {2, 810}, "ganesh_8": {2, 894},
		"berkel2": {1, 51}, "berkel3": {2, 488}, "mp-forward-pkt": {0, 16}, "luciano": {1, 36},
		"Delement": {1, 14},
	}
	rec, err := loadRecord()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Table1) != len(published) {
		t.Fatalf("record has %d Table-1 entries, want %d", len(rec.Table1), len(published))
	}
	for name, want := range published {
		got := rec.Table1[name]
		if got.Added != want[0] || got.Composed != want[1] {
			t.Errorf("%s: recorded %d/%d, published %d/%d", name, got.Added, got.Composed, want[0], want[1])
		}
	}
}

func TestSynthesisMatchesRecord(t *testing.T) {
	rec, err := loadRecord()
	if err != nil {
		t.Fatal(err)
	}
	e := benchdata.Table1[len(benchdata.Table1)-1]
	_, got, err := synthesize(e.Source)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.mismatch(rec.Table1[e.Name]); err != nil {
		t.Errorf("%s: %v", e.Name, err)
	}
}

// A wrong digest, a wrong count, an error status or a refusal each
// count as one failed operation; a matching answer does not, and it is
// a hit exactly when its trace lists no computed stage.
func TestFailureCounting(t *testing.T) {
	rec, err := loadRecord()
	if err != nil {
		t.Fatal(err)
	}
	e := benchdata.Table1[0]
	good := rec.Table1[e.Name]
	planted := good
	planted.SHA = serve.SHA("not the netlist")
	fewer := good
	fewer.Composed--

	var status int
	var body outcome
	var trace serve.Trace
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if status != http.StatusOK {
			w.WriteHeader(status)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{
			"result": map[string]any{
				"netlist_sha256": body.SHA, "added": make([]string, body.Added),
				"spec_states": body.States, "composed_states": body.Composed, "ok": true,
			},
			"trace": trace,
		})
	}))
	defer srv.Close()

	hit := serve.Trace{Hits: serve.Stages}
	miss := serve.Trace{Hits: serve.Stages[:4], Computed: serve.Stages[4:]}
	for _, c := range []struct {
		name   string
		status int
		body   outcome
		trace  serve.Trace
		failed int
	}{
		{"matching hit", http.StatusOK, good, hit, 0},
		{"matching miss", http.StatusOK, good, miss, 0},
		{"planted digest", http.StatusOK, planted, hit, 1},
		{"composed count", http.StatusOK, fewer, hit, 1},
		{"refused", http.StatusTooManyRequests, good, hit, 1},
		{"server error", http.StatusInternalServerError, good, hit, 1},
	} {
		status, body, trace = c.status, c.body, c.trace
		req := request{kind: replay, name: e.Name, source: e.Source, want: good}
		answers := []answer{post(srv.Client(), srv.URL, req)}
		var tl tally
		checkAnswers([]request{req}, answers, nil, nil, &tl)
		if tl.attempted != 1 || tl.failed != c.failed {
			t.Errorf("%s: %d attempted, %d failed; want 1, %d", c.name, tl.attempted, tl.failed, c.failed)
		}
		if a := answers[0]; c.failed == 0 && a.hit != (len(c.trace.Computed) == 0) {
			t.Errorf("%s: hit = %v with trace %+v", c.name, a.hit, c.trace)
		}
	}
}

// A request is a hit when its trace lists no computed stage; the split
// feeds the hit_ and miss_ metrics, window by window.
func TestHitMissSplit(t *testing.T) {
	start := time.Now()
	var as []answer
	for i := 0; i < runWindows*blockSize; i++ {
		a := answer{start: start.Add(time.Duration(i) * time.Millisecond), latency: 100 * time.Microsecond, hit: true}
		if i%blockSize >= blockReplays {
			a.latency, a.hit = 2*time.Millisecond, false
		}
		as = append(as, a)
	}
	all, hits, misses, rates := serveWindows(as)
	for w := 0; w < runWindows; w++ {
		if len(all[w]) != blockSize || len(hits[w]) != blockReplays || len(misses[w]) != blockSize-blockReplays {
			t.Fatalf("window %d: %d all, %d hits, %d misses", w, len(all[w]), len(hits[w]), len(misses[w]))
		}
		if rates[w] <= 0 {
			t.Fatalf("window %d: rate %v", w, rates[w])
		}
	}
	var r result
	setLatencyMetrics(&r, "hit_", hits)
	setLatencyMetrics(&r, "miss_", misses)
	if got := r.Metrics["hit_latency_ms_p90"].Value; got != 0.1 {
		t.Errorf("hit p90 = %v ms, want 0.1", got)
	}
	if got := r.Metrics["miss_latency_ms_p50"].Value; got != 2 {
		t.Errorf("miss p50 = %v ms, want 2", got)
	}
}

// BENCHMARK.json declares exactly the metrics the two kinds of run print.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) string {
		var n []string
		for _, m := range ms {
			n = append(n, m.Name)
		}
		sort.Strings(n)
		return fmt.Sprint(n)
	}
	sorted := func(n []string) string {
		n = append([]string(nil), n...)
		sort.Strings(n)
		return fmt.Sprint(n)
	}
	if got, want := names(b.EndToEnd), sorted(endToEnd); got != want {
		t.Errorf("end_to_end %s\nharness    %s", got, want)
	}
	if got, want := names(b.PerLayer), sorted(perLayer()); got != want {
		t.Errorf("per_layer %s\nharness   %s", got, want)
	}
}
