package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"

	"repro/internal/benchdata"
	"repro/internal/serve"
	"repro/internal/synth"
)

// input is one specification the table1 and wide workloads synthesize.
// Key names it the same way at every seed.
type input struct {
	Key    string
	Source string
}

// wideForks and wideWideForks size the wide workload's generated specs:
// GenParallelizer(k) has 2^(k+1) states and GenWideFork(s, w, d) about
// 2(d+1)^w, so together they span roughly 500 to 8k states.
var (
	wideForks     = []int{9, 10, 12}
	wideWideForks = [][2]int{{4, 3}, {4, 4}, {6, 2}, {5, 3}}
)

// passesPerSecond is how many passes over a workload's inputs the
// calibration commit completed per second on a 2-vCPU x86-64 Linux VM.
// -seconds times this rate fixes the number of operations, so a run is
// a fixed sequence: a faster program finishes it sooner instead of
// doing more of it.
var passesPerSecond = map[string]float64{"table1": 4.7, "wide": 2.6}

// workloadInputs builds the inputs of a synthesis workload. The seed
// changes only the branch wiring of the wide forks, never their size,
// so every seed does the same work per pass.
func workloadInputs(workload string, seed int64) ([]input, error) {
	switch workload {
	case "table1":
		ins := make([]input, len(benchdata.Table1))
		for i, e := range benchdata.Table1 {
			ins[i] = input{Key: e.Name, Source: e.Source}
		}
		return ins, nil
	case "wide":
		rng := rand.New(rand.NewSource(seed))
		var ins []input
		for _, k := range wideForks {
			ins = append(ins, input{Key: fmt.Sprintf("fork%d", k), Source: benchdata.GenParallelizer(k).Format()})
		}
		for _, wd := range wideWideForks {
			rs := benchdata.GenWideFork(rng.Int63(), wd[0], wd[1])
			ins = append(ins, input{Key: fmt.Sprintf("widefork_w%d_d%d", wd[0], wd[1]), Source: rs.Net.Format()})
		}
		return ins, nil
	}
	return nil, fmt.Errorf("unknown synthesis workload %q", workload)
}

// opSequence is the run's operation order: passes rounds over n inputs,
// each round in its own seeded order.
func opSequence(n, passes int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	seq := make([]int, 0, n*passes)
	for p := 0; p < passes; p++ {
		seq = append(seq, rng.Perm(n)...)
	}
	return seq
}

// passesFor converts -seconds into a pass count at the calibrated rate.
func passesFor(workload string, seconds int) int {
	return max(1, int(math.Round(float64(seconds)*passesPerSecond[workload])))
}

// outcome is the part of a synthesis the checks compare.
type outcome struct {
	SHA      string `json:"netlist_sha256"`
	Added    int    `json:"added"`
	States   int    `json:"spec_states"`
	Composed int    `json:"composed_states"`
}

// mismatch reports how got differs from want; an empty want.SHA skips
// the digest comparison.
func (got outcome) mismatch(want outcome) error {
	switch {
	case got.Added != want.Added:
		return fmt.Errorf("inserted %d signals, want %d", got.Added, want.Added)
	case got.States != want.States:
		return fmt.Errorf("%d spec states, want %d", got.States, want.States)
	case got.Composed != want.Composed:
		return fmt.Errorf("%d composed states, want %d", got.Composed, want.Composed)
	case want.SHA != "" && got.SHA != want.SHA:
		return fmt.Errorf("netlist sha-256 %.12s…, want %.12s…", got.SHA, want.SHA)
	}
	return nil
}

// outcomeOf extracts the checked fields of a successful synthesis.
func outcomeOf(rep *synth.Report) (outcome, error) {
	if !rep.OK() || rep.Verify == nil {
		return outcome{}, fmt.Errorf("synthesis did not verify")
	}
	return outcome{
		SHA:      serve.SHA(rep.Netlist.String()),
		Added:    len(rep.AddedSignals),
		States:   rep.Spec.NumStates(),
		Composed: rep.Verify.States,
	}, nil
}

// record is expected.json: every input's outcome at the default seed.
// Table-1 outcomes hold at every seed. A wide input's counts do too, but
// its netlist names the seed's wiring, so at other seeds only the
// counts are compared with the record and the digest with the run's
// own first synthesis.
type record struct {
	Seed   int64              `json:"seed"`
	Table1 map[string]outcome `json:"table1"`
	Wide   map[string]outcome `json:"wide"`
}

//go:embed expected.json
var expectedJSON []byte

func loadRecord() (*record, error) {
	var r record
	if err := json.Unmarshal(expectedJSON, &r); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &r, nil
}

// expectedFor returns each input's recorded outcome, keyed like the
// inputs, with the digest dropped where the seed makes it differ.
func (r *record) expectedFor(workload string, seed int64, ins []input) ([]outcome, error) {
	table := r.Table1
	if workload == "wide" {
		table = r.Wide
	}
	want := make([]outcome, len(ins))
	for i, in := range ins {
		o, ok := table[in.Key]
		if !ok {
			return nil, fmt.Errorf("expected.json has no %s entry for %s", workload, in.Key)
		}
		if workload == "wide" && seed != r.Seed {
			o.SHA = ""
		}
		want[i] = o
	}
	return want, nil
}

// writeRecord synthesizes the default seed's inputs and writes
// expected.json.
func writeRecord(path string) error {
	r := record{Seed: defaultSeed, Table1: map[string]outcome{}, Wide: map[string]outcome{}}
	for _, w := range []string{"table1", "wide"} {
		ins, err := workloadInputs(w, defaultSeed)
		if err != nil {
			return err
		}
		for _, in := range ins {
			rep, err := synth.FromSTGSource(in.Source, synth.Options{})
			if err != nil {
				return fmt.Errorf("%s: %w", in.Key, err)
			}
			o, err := outcomeOf(rep)
			if err != nil {
				return fmt.Errorf("%s: %w", in.Key, err)
			}
			if w == "table1" {
				r.Table1[in.Key] = o
			} else {
				r.Wide[in.Key] = o
			}
		}
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
