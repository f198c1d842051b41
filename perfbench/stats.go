package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

// latencies is a sample of operation wall times.
type latencies []time.Duration

// pctMS is the p-th nearest-rank percentile in milliseconds. It sorts a
// copy and defers to bench.Percentile, fed nanoseconds.
func (l latencies) pctMS(p float64) float64 {
	ns := make([]int64, len(l))
	for i, d := range l {
		ns[i] = int64(d)
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return float64(bench.Percentile(ns, p)) / 1e6
}

// geomeanMS is the geometric mean in milliseconds: every operation
// weighs the same, so halving the small ones counts as much as halving
// the large ones.
func (l latencies) geomeanMS() float64 {
	if len(l) == 0 {
		return 0
	}
	sum := 0.0
	for _, d := range l {
		sum += math.Log(float64(d) / 1e6)
	}
	return math.Exp(sum / float64(len(l)))
}

// meanMS is the arithmetic mean in milliseconds.
func (l latencies) meanMS() float64 {
	if len(l) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range l {
		sum += d
	}
	return float64(sum) / 1e6 / float64(len(l))
}

// median is the middle value (the mean of the two middle ones for an
// even count).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB reads VmHWM, the peak resident set size, of a process from
// /proc/<pid>/status ("self" for this process).
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("unexpected VmHWM line %q", sc.Text())
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// runWindows is how many windows a timed run is cut into. The machine
// slows down in stretches of several seconds; computing each metric per
// window and reporting the median window keeps such a stretch from
// moving the run's figure unless it covers half the run.
const runWindows = 10

// windowBounds returns window w of n units (passes or request blocks):
// units [lo, hi), spread as evenly as whole units allow.
func windowBounds(w, n int) (lo, hi int) {
	return w * n / runWindows, (w + 1) * n / runWindows
}

// medianOver is the median of f over the windows.
func medianOver(wins []latencies, f func(latencies) float64) float64 {
	vals := make([]float64, 0, len(wins))
	for _, w := range wins {
		if len(w) > 0 {
			vals = append(vals, f(w))
		}
	}
	return median(vals)
}

// setLatencyMetrics sets the <prefix>latency_ms_p50 and _p90 metrics,
// and for the unprefixed class the geometric mean, each as the median
// over windows of its value in one window.
func setLatencyMetrics(r *result, prefix string, wins []latencies) {
	r.set(prefix+"latency_ms_p50", "ms", medianOver(wins, func(l latencies) float64 { return l.pctMS(0.50) }))
	r.set(prefix+"latency_ms_p90", "ms", medianOver(wins, func(l latencies) float64 { return l.pctMS(0.90) }))
	if prefix == "" {
		r.set("latency_ms_geomean", "ms", medianOver(wins, latencies.geomeanMS))
	}
}
