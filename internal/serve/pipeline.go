package serve

import (
	"fmt"

	"repro/internal/encode"
	"repro/internal/sg"
	"repro/internal/stg"
	"repro/internal/synth"
	"repro/internal/verify"
)

// The staged pipeline, cache-aware. The stage bodies are synth's stage
// functions; this file adds only cache keys and Result assembly. Each
// stage is the smallest unit whose inputs are content-addressable:
// parse, reach and analyze key on the canonical source alone, repair
// adds the repair fingerprint, and the netlist stage (cover + build +
// verify) adds the implementation fingerprint. A request that differs
// from a cached one only in RS therefore reuses the repair result — the
// stage that dominates cold cost by orders of magnitude — and
// recomputes only covers and verification.

// parseResult is the parse stage's cache value. Errors are cached too:
// the pipeline is deterministic, so a spec that fails to parse fails
// identically forever, and negative entries keep a hostile or broken
// client from re-running the failure path.
type parseResult struct {
	net *stg.STG
	err error
}

type reachResult struct {
	g   *sg.Graph
	err error
}

// analyzeResult carries the analysis: the region table every later
// stage of the spec reads. Nothing writes to it once cached, so the
// repair stages of different configs share one entry concurrently.
type analyzeResult struct {
	an  *synth.Analysis
	err error
}

// repairResult carries the repair stage's result, whose MC report's
// analyzer derives covers on demand. That analyzer holds every
// signal's regions already, so cover derivation only reads it, and
// netlist configs sharing one entry need no lock.
type repairResult struct {
	fixed *encode.Result
	err   error
}

// Result is the netlist stage's cache value and the API's result
// payload: everything a client needs to consume or re-verify one
// synthesis, addressed by the sha-256 of the netlist text.
type Result struct {
	Spec           string   `json:"spec"`
	SpecSHA        string   `json:"spec_sha256"`
	Key            string   `json:"key"`                      // netlist stage cache key
	NetlistSHA     string   `json:"netlist_sha256,omitempty"` // sha-256 of Netlist
	Netlist        string   `json:"netlist,omitempty"`        // rendered netlist text
	Literals       int      `json:"literals,omitempty"`
	Added          []string `json:"added,omitempty"` // inserted state signals
	SpecStates     int      `json:"spec_states,omitempty"`
	FinalStates    int      `json:"final_states,omitempty"`
	ComposedStates int      `json:"composed_states,omitempty"` // verification state count
	Verdict        string   `json:"verdict"`
	OK             bool     `json:"ok"`
	Err            string   `json:"error,omitempty"`
}

// Trace records how one request's stages resolved — which came from
// cache, which were computed, and which joined another request's
// in-progress computation. Tests and the load driver use it to tell
// cold from warm work apart.
type Trace struct {
	Hits      []string `json:"hits,omitempty"`
	Computed  []string `json:"computed,omitempty"`
	Coalesced []string `json:"coalesced,omitempty"`
}

// stage resolves one stage: cache lookup, then singleflight-coalesced
// computation under the stage's pprof label (synth.Labeled). Exactly
// one caller per key computes; the result (error included) lands in
// the cache for everyone after. A compute that panics lands nowhere:
// the computing caller and every coalesced waiter get the panic back
// as an error, and the next request for the key computes afresh.
func stage[T any](s *Server, tr *Trace, name, key string, compute func() T) (T, error) {
	if v, ok := s.cache.Get(name, key); ok {
		tr.Hits = append(tr.Hits, name)
		return v.(T), nil
	}
	v, err, coalesced := s.flights.Do(key, func() (any, error) {
		// Double-check under the flight: a previous flight may have
		// populated the key between the Get above and here.
		if v, ok := s.cache.Peek(key); ok {
			return v, nil
		}
		s.computes[name].Add(1)
		var v T
		synth.Labeled(name, func() { v = compute() })
		s.cache.Put(name, key, v)
		return v, nil
	})
	if coalesced {
		tr.Coalesced = append(tr.Coalesced, name)
		s.coalesced.Add(1)
	} else {
		tr.Computed = append(tr.Computed, name)
	}
	if err != nil {
		var zero T
		return zero, fmt.Errorf("serve: %s stage: %w", name, err)
	}
	return v.(T), nil
}

// synthesize runs (or replays from cache) the full pipeline for one
// request: one stage per synth stage function (stg.Parse, stg.BuildSG,
// synth.Analyze, synth.Repair, then synth.CoverNetlist + verify.Check),
// so a cache-assembled result is byte-identical to synth.FromSTGSource
// on the same spec and config.
//
// onSpec, when non-nil, fires once as soon as the specification's name
// is known (right after parse) — the hook the server uses to route
// progress events and open the journal run before the expensive stages
// begin.
func (s *Server) synthesize(name, source string, cfg Config, onSpec func(spec string)) (*Result, *Trace) {
	tr := &Trace{}
	canon := Canonicalize(source)
	srcSHA := SHA(canon)

	kParse := stageKey("parse", srcSHA)
	kReach := stageKey("reach", kParse)
	kAnalyze := stageKey("analyze", kReach)
	kRepair := stageKey("repair", kReach, cfg.RepairFP())
	kNet := stageKey("netlist", kRepair, cfg.NetlistFP())

	fail := func(err error) (*Result, *Trace) {
		res := &Result{Spec: name, SpecSHA: srcSHA, Key: kNet, Verdict: "error: " + err.Error(), Err: err.Error()}
		return res, tr
	}

	pr, err := stage(s, tr, "parse", kParse, func() *parseResult {
		net, err := stg.Parse(canon)
		return &parseResult{net: net, err: err}
	})
	if err == nil {
		err = pr.err
	}
	if err != nil {
		return fail(err)
	}
	if name == "" {
		name = pr.net.Name
	}
	if onSpec != nil {
		onSpec(pr.net.Name)
	}

	rr, err := stage(s, tr, "reach", kReach, func() *reachResult {
		g, err := stg.BuildSG(pr.net)
		return &reachResult{g: g, err: err}
	})
	if err == nil {
		err = rr.err
	}
	if err != nil {
		return fail(err)
	}

	ar, err := stage(s, tr, "analyze", kAnalyze, func() *analyzeResult {
		an, err := synth.Analyze(rr.g)
		return &analyzeResult{an: an, err: err}
	})
	if err == nil {
		err = ar.err
	}
	if err != nil {
		return fail(err)
	}

	rep, err := stage(s, tr, "repair", kRepair, func() *repairResult {
		fixed, err := synth.Repair(ar.an, encode.Options{MaxModels: cfg.MaxModels, Workers: s.jobWorkers()})
		return &repairResult{fixed: fixed, err: err}
	})
	if err == nil {
		err = rep.err
	}
	if err != nil {
		return fail(err)
	}

	res, err := stage(s, tr, "netlist", kNet, func() *Result {
		final := rep.fixed.G
		nl, _, err := synth.CoverNetlist(final, rep.fixed.Report, synth.Options{RS: cfg.RS, Share: cfg.Share})
		out := &Result{
			Spec:        name,
			SpecSHA:     srcSHA,
			Key:         kNet,
			Added:       rep.fixed.Added,
			SpecStates:  rr.g.NumStates(),
			FinalStates: final.NumStates(),
		}
		if err != nil {
			out.Verdict = "error: " + err.Error()
			out.Err = err.Error()
			return out
		}
		out.Netlist = nl.String()
		out.NetlistSHA = SHA(out.Netlist)
		out.Literals = nl.Stats().Literals
		vres := verify.Check(nl, final)
		out.Verdict = vres.String()
		out.ComposedStates = vres.States
		out.OK = rep.fixed.Report.Satisfied() && vres.OK()
		if !vres.OK() {
			out.Err = fmt.Sprintf("synth: %s: synthesized circuit failed verification", name)
		}
		s.indexResult(out)
		return out
	})
	if err != nil {
		return fail(err)
	}
	if res.Spec != name && name != "" {
		// A coalesced or cached result may carry the first submitter's
		// display name; the payload is identical, so rebrand a copy.
		clone := *res
		clone.Spec = name
		res = &clone
	}
	s.indexResult(res)
	return res, tr
}

// jobWorkers resolves the per-job repair worker count. Shards already
// provide cross-request parallelism, so each job defaults to a
// sequential repair — worker count never changes the netlist, only
// contention.
func (s *Server) jobWorkers() int {
	if s.opts.JobWorkers > 0 {
		return s.opts.JobWorkers
	}
	return 1
}
