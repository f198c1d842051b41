package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/encode"
	"repro/internal/netlist"
	"repro/internal/serve"
	"repro/internal/sg"
	"repro/internal/stg"
	"repro/internal/synth"
	"repro/internal/verify"
)

// layers are the pipeline's layer calls in synth.FromGraph's order,
// each named after the package whose public function it times.
var layers = []string{"stg.parse", "stg.reach", "sg.analyze", "encode.repair", "sg.bisim", "synth.cover", "verify.check"}

// allocLayers are the layers whose allocations the traced run reports.
var allocLayers = []string{"stg.reach", "sg.analyze", "encode.repair", "synth.cover", "verify.check"}

// counts are the per-operation work counts the traced run averages.
var counts = []string{
	"stg.states", "encode.models", "encode.candidates", "encode.pruned", "encode.deduped",
	"encode.added", "encode.final_states", "sat.conflicts", "sat.decisions", "sat.propagations",
	"verify.composed_states", "netlist.literals",
}

// serveLayerMetrics are the per-layer metrics read from the server.
var serveLayerMetrics = []string{
	"serve.hit_ratio.parse", "serve.hit_ratio.reach", "serve.hit_ratio.analyze",
	"serve.hit_ratio.repair", "serve.hit_ratio.netlist",
	"serve.full_hit_share", "serve.coalesced", "serve.rejected",
}

// span is one timed call: an operation ("op") or a layer call inside it.
// Times are nanoseconds since the traced run began.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an operation
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type layerStat struct {
	ns, allocs int64
}

// recorder is the traced run's span store and per-layer accumulator.
// Spans stay in memory until writeSpans.
type recorder struct {
	t0     time.Time
	spans  []span
	layer  map[string]*layerStat
	count  map[string]int64
	ops    int
	opNS   int64
	carry  [2]int64 // Carried, CarriedKept
	memory runtime.MemStats
}

func newRecorder(ops int) *recorder {
	r := &recorder{
		t0:    time.Now(),
		spans: make([]span, 0, ops*(len(layers)+1)),
		layer: map[string]*layerStat{},
		count: map[string]int64{},
	}
	for _, l := range layers {
		r.layer[l] = &layerStat{}
	}
	return r
}

func (r *recorder) begin(op, parent int, name string) int {
	r.spans = append(r.spans, span{Op: op, ID: len(r.spans), Parent: parent, Name: name, Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) int64 {
	s := &r.spans[id]
	s.End = int64(time.Since(r.t0))
	return s.End - s.Start
}

// mallocs reads the exact heap allocation count. ReadMemStats stops the
// world, so it runs outside every layer span; its cost lands in the
// residual.
func (r *recorder) mallocs() int64 {
	runtime.ReadMemStats(&r.memory)
	return int64(r.memory.Mallocs)
}

// call times one layer call as a child span of the operation.
func (r *recorder) call(op, parent int, name string, fn func() error) error {
	before := r.mallocs()
	id := r.begin(op, parent, name)
	err := fn()
	ns := r.end(id)
	st := r.layer[name]
	st.ns += ns
	st.allocs += r.mallocs() - before
	return err
}

// synth is one traced operation. It calls the layer functions the way
// synth.FromGraph does with zero Options, except that repair takes
// ropts, and returns the same outcome synthesize would.
func (r *recorder) synth(op int, src string, ropts encode.Options) (outcome, error) {
	root := r.begin(op, -1, "op")
	g, fixed, nl, vres, err := r.pipeline(op, root, src, ropts)
	r.opNS += r.end(root)
	r.ops++
	if err != nil {
		return outcome{}, err
	}
	if !fixed.Report.Satisfied() || !vres.OK() {
		return outcome{}, fmt.Errorf("synthesis did not verify")
	}
	r.count["stg.states"] += int64(g.NumStates())
	r.count["encode.models"] += int64(fixed.Models)
	r.count["encode.candidates"] += int64(fixed.Candidates)
	r.count["encode.pruned"] += int64(fixed.Pruned)
	r.count["encode.deduped"] += int64(fixed.Deduped)
	r.count["encode.added"] += int64(len(fixed.Added))
	r.count["encode.final_states"] += int64(fixed.G.NumStates())
	r.count["sat.conflicts"] += fixed.SAT.Conflicts
	r.count["sat.decisions"] += fixed.SAT.Decisions
	r.count["sat.propagations"] += fixed.SAT.Propagations
	r.count["verify.composed_states"] += int64(vres.States)
	r.count["netlist.literals"] += int64(nl.Stats().Literals)
	r.carry[0] += int64(fixed.Carried)
	r.carry[1] += int64(fixed.CarriedKept)
	return outcome{
		SHA:      serve.SHA(nl.String()),
		Added:    len(fixed.Added),
		States:   g.NumStates(),
		Composed: vres.States,
	}, nil
}

// pipeline makes the layer calls of one operation and returns the
// specification's graph, the repair result, the netlist and its
// verification.
func (r *recorder) pipeline(op, root int, src string, ropts encode.Options) (*sg.Graph, *encode.Result, *netlist.Netlist, *verify.Result, error) {
	var net *stg.STG
	if err := r.call(op, root, "stg.parse", func() (err error) {
		net, err = stg.Parse(src)
		return err
	}); err != nil {
		return nil, nil, nil, nil, err
	}
	var g *sg.Graph
	if err := r.call(op, root, "stg.reach", func() (err error) {
		g, err = stg.BuildSG(net)
		return err
	}); err != nil {
		return nil, nil, nil, nil, err
	}
	if err := r.call(op, root, "sg.analyze", func() error {
		if err := g.CheckConsistency(); err != nil {
			return err
		}
		if !g.Check().OutputSemiModular {
			return fmt.Errorf("%s is not output semi-modular", g.Name)
		}
		return nil
	}); err != nil {
		return nil, nil, nil, nil, err
	}
	var fixed *encode.Result
	if err := r.call(op, root, "encode.repair", func() (err error) {
		fixed, err = encode.Repair(g, ropts)
		return err
	}); err != nil {
		return nil, nil, nil, nil, err
	}
	if len(fixed.Added) > 0 && g.NumStates() <= 4096 {
		if err := r.call(op, root, "sg.bisim", func() error {
			return sg.WeaklyBisimilar(g, fixed.G)
		}); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	var nl *netlist.Netlist
	if err := r.call(op, root, "synth.cover", func() (err error) {
		nl, _, err = synth.CoverNetlist(fixed.G, fixed.Report, synth.Options{})
		return err
	}); err != nil {
		return nil, nil, nil, nil, err
	}
	var vres *verify.Result
	r.call(op, root, "verify.check", func() error {
		vres = verify.CheckLimit(nl, fixed.G, verify.DefaultStateLimit)
		return nil
	})
	return g, fixed, nl, vres, nil
}

// report sets the per-layer metrics: per-operation means of layer
// time, allocations and work counts, the traced per-operation total and
// the part of it no layer span covers, and that total's overhead over
// the untraced mean.
func (r *recorder) report(res *result, untracedMS float64) {
	ops := float64(max(r.ops, 1))
	var layerNS int64
	for _, l := range layers {
		st := r.layer[l]
		layerNS += st.ns
		res.set(l+"_ms", "ms", float64(st.ns)/1e6/ops)
	}
	for _, l := range allocLayers {
		res.set(l+"_allocs", "count", float64(r.layer[l].allocs)/ops)
	}
	for _, c := range counts {
		res.set(c, "count", float64(r.count[c])/ops)
	}
	res.set("encode.prune_ratio", "ratio", ratio(r.count["encode.pruned"], r.count["encode.candidates"]))
	res.set("encode.carry_kept_ratio", "ratio", ratio(r.carry[1], r.carry[0]))
	tracedMS := float64(r.opNS) / 1e6 / ops
	res.set("trace.op_ms", "ms", tracedMS)
	res.set("trace.residual_ms", "ms", float64(r.opNS-layerNS)/1e6/ops)
	overhead := 0.0
	if untracedMS > 0 {
		overhead = (tracedMS/untracedMS - 1) * 100
	}
	res.set("trace.overhead_pct", "%", overhead)
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// writeSpans writes every span as one JSON line.
func (r *recorder) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceSynth replays a table1/wide run's operations through the layer
// calls. Each traced netlist must equal its untraced twin, so the
// benchmark's own composition of the layers cannot drift from
// synth.FromGraph unnoticed.
func traceSynth(cfg *config, res *result, ins []input, seq []int, digests []string, lat latencies, t *tally) error {
	rec := newRecorder(len(seq))
	for i, idx := range seq {
		what := fmt.Sprintf("traced op %d (%s)", i, ins[idx].Key)
		if time.Now().After(cfg.deadline()) {
			t.record(what, fmt.Errorf("not started before the run deadline"))
			continue
		}
		o, err := rec.synth(i, ins[idx].Source, encode.Options{})
		if err == nil && o.SHA != digests[i] {
			err = fmt.Errorf("traced netlist sha-256 %.12s… differs from the untraced %.12s…", o.SHA, digests[i])
		}
		t.record(what, err)
	}
	rec.report(res, lat.meanMS())
	return rec.writeSpans(spanFile(cfg))
}
