package serve

import (
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/benchdata"
	"repro/internal/encode"
	"repro/internal/synth"
)

// A stage compute that panics must answer the computing caller and
// every coalesced waiter with an error, release its flight key, and
// cache nothing, so the next request for the key computes afresh.
func TestStagePanicAnswersWaitersAndCachesNothing(t *testing.T) {
	s := newTestServer(t, Options{})
	key := stageKey("parse", "panic-test")
	type answer struct {
		tr  *Trace
		err error
	}
	answers := make(chan answer, 2)
	call := func(compute func() *parseResult) {
		tr := &Trace{}
		_, err := stage(s, tr, "parse", key, compute)
		answers <- answer{tr, err}
	}
	entered, release := make(chan struct{}), make(chan struct{})
	go call(func() *parseResult {
		close(entered)
		<-release
		panic("planted")
	})
	<-entered
	go call(func() *parseResult {
		t.Error("a coalesced waiter ran its own compute")
		return nil
	})
	// Release the panic only once the second caller waits on the flight.
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		s.flights.mu.Lock()
		joined := s.flights.m[key] != nil && s.flights.m[key].waiters == 1
		s.flights.mu.Unlock()
		if joined {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the second caller never joined the flight")
		}
	}
	close(release)

	timeout := time.After(time.Second)
	var computed, coalesced int
	for range 2 {
		select {
		case a := <-answers:
			if a.err == nil {
				t.Error("a caller of the panicking stage got no error")
			}
			computed += len(a.tr.Computed)
			coalesced += len(a.tr.Coalesced)
		case <-timeout:
			t.Fatal("a caller of the panicking stage is still blocked after 1s")
		}
	}
	if computed != 1 || coalesced != 1 {
		t.Errorf("traces: %d computed, %d coalesced; want 1 and 1", computed, coalesced)
	}
	s.flights.mu.Lock()
	left := len(s.flights.m)
	s.flights.mu.Unlock()
	if left != 0 {
		t.Errorf("%d keys left in the flight group", left)
	}
	if _, ok := s.cache.Peek(key); ok {
		t.Error("the panic was cached")
	}

	want := &parseResult{}
	tr := &Trace{}
	got, err := stage(s, tr, "parse", key, func() *parseResult { return want })
	if err != nil || got != want || len(tr.Computed) != 1 {
		t.Fatalf("retry: got %p, err %v, trace %+v; want a fresh compute of %p", got, err, tr, want)
	}
	if v, ok := s.cache.Peek(key); !ok || v != want {
		t.Error("the retry's result was not cached")
	}
	if n := s.computes["parse"].Value(); n != 2 {
		t.Errorf("parse computed %d times, want 2", n)
	}
}

// Two repair configs of one spec run at once over the one cached
// analyze entry, so their repair and netlist stages read the same
// region table concurrently (run under -race). Each netlist must match
// a direct synthesis with the same configuration, for a spec repaired
// from the table alone and for one that needs an inserted signal.
func TestConcurrentRepairConfigsShareAnalysis(t *testing.T) {
	for _, name := range []string{"mp-forward-pkt", "Delement"} {
		var src string
		for _, e := range benchdata.Table1 {
			if e.Name == name {
				src = e.Source
			}
		}
		s := newTestServer(t, Options{})
		// Prime parse, reach and analyze with a third config.
		if res, _ := s.synthesize("", src, Config{MaxModels: 32}, nil); !res.OK {
			t.Fatalf("%s: priming run failed: %s", name, res.Verdict)
		}
		configs := []Config{{}, {MaxModels: 64, Share: true}}
		results := make([]*Result, len(configs))
		traces := make([]*Trace, len(configs))
		var wg sync.WaitGroup
		for i, cfg := range configs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i], traces[i] = s.synthesize("", src, cfg, nil)
			}()
		}
		wg.Wait()
		if n := s.computes["analyze"].Value(); n != 1 {
			t.Errorf("%s: analyze computed %d times, want 1", name, n)
		}
		for i, cfg := range configs {
			ref, err := synth.FromSTGSource(src, synth.Options{Share: cfg.Share, Repair: encode.Options{MaxModels: cfg.MaxModels}})
			if err != nil {
				t.Fatalf("%s %+v: reference synthesis: %v", name, cfg, err)
			}
			if got := results[i]; !got.OK || got.Netlist != ref.Netlist.String() {
				t.Errorf("%s %+v: served netlist (ok=%v)\n%s\nwant\n%s", name, cfg, got.OK, got.Netlist, ref.Netlist)
			}
			if !slices.Contains(traces[i].Hits, "analyze") || !slices.Contains(traces[i].Computed, "repair") {
				t.Errorf("%s %+v: trace %+v, want an analyze hit and a repair compute", name, cfg, traces[i])
			}
		}
	}
}
