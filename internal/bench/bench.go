// Package bench measures the per-stage cost of the synthesis pipeline
// over the nine Table-1 benchmarks — parse, reachability (BuildSG),
// state-graph analysis, state-signal repair, cover/netlist construction, and verification — and emits the
// machine-readable report committed as BENCH_table1.json. Each stage is
// timed with testing.Benchmark under ReportAllocs, so the JSON records
// ns/op, allocs/op and B/op per benchmark and stage; CI regenerates the
// file on every run and uploads it as an artifact, giving the repo a
// tracked history of the two hot paths this package exists to guard
// (stg reachability and verify exploration).
package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/benchdata"
	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/engine"
	"repro/internal/stg"
	"repro/internal/synth"
	"repro/internal/verify"
)

// StageOrder lists the measured pipeline stages in execution order.
// "repair" (SAT-driven state-signal insertion) and "cover" (MC cube
// derivation + netlist construction) are the two halves of what used
// to be tracked as a single "synth" stage; repair dominates it by
// orders of magnitude, so it is tracked apart to keep its perf
// trajectory visible.
// The two trailing *_symbolic stages are the symbolic engine's
// counterparts of "reach" and "analyze": BDD fixpoint reachability, and
// the full engine-level analysis (regions + existence-only MC). They
// track the explicit/symbolic crossover on specs both engines can
// finish.
var StageOrder = []string{"parse", "reach", "analyze", "repair", "cover", "verify", "reach_symbolic", "mc_symbolic"}

// Stage is the measured cost of one pipeline stage.
type Stage struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	Iterations  int   `json:"iterations"`
}

// Entry is the per-benchmark record.
type Entry struct {
	Name           string           `json:"name"`
	SGStates       int              `json:"sg_states"`
	ComposedStates int              `json:"composed_states"`
	Stages         map[string]Stage `json:"stages"`
}

// Report is the full BENCH_table1.json payload. The run-metadata
// fields (commit, timestamp, GOMAXPROCS, CPU model, GOGC) make any two
// archived reports comparable without consulting the CI logs they came
// from — and let benchdiff refuse a comparison across machines whose
// wall-clock numbers were never commensurable.
type Report struct {
	GoVersion    string   `json:"go_version"`
	GOOS         string   `json:"goos"`
	GOARCH       string   `json:"goarch"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	NumCPU       int      `json:"num_cpu"`
	CPUModel     string   `json:"cpu_model,omitempty"`
	GOGC         string   `json:"gogc"`
	GitCommit    string   `json:"git_commit,omitempty"`
	GeneratedUTC string   `json:"generated_utc"`
	Benchtime    string   `json:"benchtime"`
	StageOrder   []string `json:"stage_order"`
	Entries      []Entry  `json:"entries"`
}

// cpuModel best-effort identifies the host CPU. Linux exposes the
// marketing name in /proc/cpuinfo; elsewhere (or in stripped
// containers) the field stays empty and benchdiff falls back to the
// GOOS/GOARCH fingerprint alone.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

// gogc reports the effective GOGC setting ("100" when unset — the
// runtime default).
func gogc() string {
	if v := os.Getenv("GOGC"); v != "" {
		return v
	}
	return "100"
}

// gitCommit resolves the source revision: the vcs.revision build
// setting when the binary was built from a checkout, else a
// best-effort `git rev-parse HEAD` for `go run` / test invocations
// (module-cache builds have neither and report "").
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func measure(f func(b *testing.B)) Stage {
	r := testing.Benchmark(f)
	return Stage{
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
	}
}

// RunTable1 benchmarks every pipeline stage of the nine Table-1
// entries. benchtime bounds the measuring time per stage; zero keeps
// the testing package's default of 1s. The set-up runs each spec once
// through synth's stage functions; the measured loops then time the
// layer call inside each stage.
func RunTable1(benchtime time.Duration) (*Report, error) {
	testing.Init()
	if benchtime > 0 {
		if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
			return nil, err
		}
	} else {
		benchtime = time.Second
	}
	rep := &Report{
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPUModel:     cpuModel(),
		GOGC:         gogc(),
		GitCommit:    gitCommit(),
		GeneratedUTC: time.Now().UTC().Format(time.RFC3339),
		Benchtime:    benchtime.String(),
		StageOrder:   StageOrder,
	}
	for _, e := range benchdata.Table1 {
		src := e.Source
		net, err := stg.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", e.Name, err)
		}
		g, err := stg.BuildSG(net)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", e.Name, err)
		}
		an, err := synth.Analyze(g)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", e.Name, err)
		}
		fixed, err := synth.Repair(an, encode.Options{})
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", e.Name, err)
		}
		nl, _, err := synth.CoverNetlist(fixed.G, fixed.Report, synth.Options{})
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", e.Name, err)
		}
		vres := verify.Check(nl, fixed.G)

		ent := Entry{
			Name:           e.Name,
			SGStates:       g.NumStates(),
			ComposedStates: vres.States,
			Stages:         make(map[string]Stage, len(StageOrder)),
		}
		ent.Stages["parse"] = measure(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := stg.Parse(src); err != nil {
					b.Fatal(err)
				}
			}
		})
		ent.Stages["reach"] = measure(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := stg.BuildSG(net); err != nil {
					b.Fatal(err)
				}
			}
		})
		ent.Stages["analyze"] = measure(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.NewAnalyzer(g).CheckGraph()
			}
		})
		ent.Stages["repair"] = measure(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := encode.Repair(g, encode.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		ent.Stages["cover"] = measure(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := synth.CoverNetlist(fixed.G, fixed.Report, synth.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		ent.Stages["verify"] = measure(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if r := verify.Check(nl, fixed.G); !r.OK() {
					b.Fatalf("verification failed: %s", r)
				}
			}
		})
		ent.Stages["reach_symbolic"] = measure(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := stg.SymbolicReachability(net); err != nil {
					b.Fatal(err)
				}
			}
		})
		ent.Stages["mc_symbolic"] = measure(func(b *testing.B) {
			b.ReportAllocs()
			sym := &engine.Symbolic{}
			for i := 0; i < b.N; i++ {
				if _, err := sym.Analyze(net); err != nil {
					b.Fatal(err)
				}
			}
		})
		rep.Entries = append(rep.Entries, ent)
	}
	return rep, nil
}

// WriteFile marshals the report as indented JSON to path.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
