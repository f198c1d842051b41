package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"repro/internal/synth"
)

// synthesize is one untraced table1/wide operation: the `mcsyn spec.g`
// path with its defaults. Only the synthesis call is timed.
func synthesize(src string) (time.Duration, outcome, error) {
	t := time.Now()
	rep, err := synth.FromSTGSource(src, synth.Options{})
	d := time.Since(t)
	if err != nil {
		return d, outcome{}, err
	}
	o, err := outcomeOf(rep)
	return d, o, err
}

// probeOp is one operation of a cold set-up, as a probe reports it.
type probeOp struct {
	NS      int64   `json:"ns"`
	Outcome outcome `json:"outcome"`
	Err     string  `json:"error,omitempty"`
}

// runProbe is one cold set-up in a fresh process: build the inputs and
// synthesize each once, in input order. It prints the operations as
// JSON for the parent run to check and time.
func runProbe(workload string, seed int64) error {
	ins, err := workloadInputs(workload, seed)
	if err != nil {
		return err
	}
	ops := make([]probeOp, len(ins))
	for i, in := range ins {
		d, o, err := synthesize(in.Source)
		ops[i] = probeOp{NS: int64(d), Outcome: o}
		if err != nil {
			ops[i].Err = err.Error()
		}
	}
	return json.NewEncoder(os.Stdout).Encode(ops)
}

// coldSetup runs one set-up in a fresh process and returns its wall
// time (process start to exit) and its per-operation cold latencies. It
// checks every cold outcome against want, filling in the digest from the
// first probe where want has none, so later operations are held to it.
func coldSetup(cfg *config, ins []input, want []outcome, t *tally) (time.Duration, latencies, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, nil, err
	}
	cmd := exec.Command(self, "-probe", "-workload", cfg.workload, "-seed", strconv.FormatInt(cfg.seed, 10))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = orphanKill()
	t0 := time.Now()
	out, err := cmd.Output()
	wall := time.Since(t0)
	if err != nil {
		return 0, nil, fmt.Errorf("set-up probe: %w", err)
	}
	var ops []probeOp
	if err := json.Unmarshal(out, &ops); err != nil || len(ops) != len(ins) {
		return 0, nil, fmt.Errorf("set-up probe: bad report (%d ops, %v)", len(ops), err)
	}
	cold := make(latencies, len(ops))
	for i, op := range ops {
		cold[i] = time.Duration(op.NS)
		if want[i].SHA == "" && op.Err == "" {
			want[i].SHA = op.Outcome.SHA
		}
		if op.Err != "" {
			err = fmt.Errorf("%s", op.Err)
		} else {
			err = op.Outcome.mismatch(want[i])
		}
		t.record("cold "+ins[i].Key, err)
	}
	return wall, cold, nil
}

// runSynth runs the table1 or wide workload: cold set-ups, one untimed
// warm-up pass, the timed closed loop, and with -trace 1 the traced
// replay of the same operations.
func runSynth(cfg *config) (*result, error) {
	rec, err := loadRecord()
	if err != nil {
		return nil, err
	}
	ins, err := workloadInputs(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	want, err := rec.expectedFor(cfg.workload, cfg.seed, ins)
	if err != nil {
		return nil, err
	}
	var t tally
	walls := make([]float64, runWindows)
	cold := make([]latencies, runWindows)
	setup := func(w int) error {
		wall, ops, err := coldSetup(cfg, ins, want, &t)
		walls[w], cold[w] = wall.Seconds(), ops
		return err
	}
	// The first cold set-up fixes the digests the warm-up is held to.
	if err := setup(0); err != nil {
		return nil, err
	}
	for i, in := range ins {
		_, o, err := synthesize(in.Source)
		if err == nil {
			err = o.mismatch(want[i])
		}
		t.record("warm-up "+in.Key, err)
	}

	passes := passesFor(cfg.workload, cfg.seconds)
	seq := opSequence(len(ins), passes, cfg.seed)
	digests := make([]string, len(seq))
	lat := make(latencies, len(seq))
	wins := make([]latencies, runWindows)
	rates := make([]float64, runWindows)
	var own time.Duration // the harness's checks between operations
	t0 := time.Now()
	// A cold set-up runs before every window, so set-ups and windows
	// sample the same stretches of machine time.
	for w := range wins {
		if w > 0 {
			if err := setup(w); err != nil {
				return nil, err
			}
		}
		lo, hi := windowBounds(w, passes)
		lo, hi = lo*len(ins), hi*len(ins)
		correct := 0
		var busy time.Duration
		for i := lo; i < hi; i++ {
			idx := seq[i]
			if time.Now().After(cfg.deadline()) {
				t.record(fmt.Sprintf("op %d", i), fmt.Errorf("not started before the run deadline"))
				continue
			}
			op0 := time.Now()
			d, o, err := synthesize(ins[idx].Source)
			c0 := time.Now()
			lat[i] = d
			if err == nil {
				err = o.mismatch(want[idx])
			}
			if err == nil {
				correct++
				digests[i] = o.SHA
			}
			t.record(fmt.Sprintf("op %d (%s)", i, ins[idx].Key), err)
			own += time.Since(c0)
			busy += time.Since(op0)
		}
		wins[w] = lat[lo:hi]
		if busy > 0 {
			rates[w] = float64(correct) / busy.Seconds()
		}
	}
	wall := time.Since(t0)

	res := &result{}
	if cfg.trace {
		if err := traceSynth(cfg, res, ins, seq, digests, lat, &t); err != nil {
			return nil, err
		}
		res.set("driver.ms_per_op", "ms", float64(own)/1e6/float64(len(seq)))
		// No server runs here: every server metric reads 0.
		setServeLayers(res, nil, nil, nil)
	} else {
		rss, err := peakRSSMB("self")
		if err != nil {
			return nil, err
		}
		res.set("setup_s", "s", median(walls))
		res.set("ops_per_s", "1/s", median(rates))
		setLatencyMetrics(res, "", wins)
		// No cache answers a CLI synthesis. A warm operation (every
		// timed one) is the hit class; the first synthesis of an input
		// in a fresh process, which is what one `mcsyn spec.g` pays,
		// is the miss class. A set-up has too few operations for a
		// percentile of its own, so the cold operations of all set-ups
		// form one sample.
		setLatencyMetrics(res, "hit_", wins)
		var pooled latencies
		for _, c := range cold {
			pooled = append(pooled, c...)
		}
		setLatencyMetrics(res, "miss_", []latencies{pooled})
		res.set("peak_rss_mb", "MB", rss)
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.failed == 0
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d ops in %.2fs, %d checked, %d failed\n",
		cfg.workload, cfg.seed, len(seq), wall.Seconds(), t.attempted, t.failed)
	return res, nil
}
