package obs

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"time"
)

// StageSpan is one top-level pipeline span in a run report.
type StageSpan struct {
	Name    string         `json:"name"`
	StartUs int64          `json:"start_us"`
	DurUs   int64          `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// RunReport is the machine-readable record of one synthesized spec:
// the stage spans of its pipeline, the counters its run moved, and the
// verdict fields the CLI fills in from the synthesis report.
type RunReport struct {
	Spec         string `json:"spec"`
	GeneratedUTC string `json:"generated_utc"`
	GoVersion    string `json:"go_version"`
	GOMAXPROCS   int    `json:"gomaxprocs"`

	Verdict        string   `json:"verdict"`
	OK             bool     `json:"ok"`
	AddedSignals   []string `json:"added_signals"`
	Literals       int      `json:"literals"`
	SpecStates     int      `json:"spec_states"`
	FinalStates    int      `json:"final_states"`
	ComposedStates int      `json:"composed_states"`

	Stages   []StageSpan        `json:"stages"`
	Counters map[string]float64 `json:"counters"`
}

// BuildRunReport assembles a report from everything observed since the
// tracer mark and counter baseline (as returned by Tracer.Mark and
// Registry.Snapshot before the run): top-level spans become stages and
// counters are reported as deltas. The caller fills the verdict fields.
func (o *Observer) BuildRunReport(spec string, mark int, base map[string]float64) *RunReport {
	r := &RunReport{
		Spec:         spec,
		GeneratedUTC: time.Now().UTC().Format(time.RFC3339),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Counters:     map[string]float64{},
	}
	if o == nil {
		return r
	}
	for _, rec := range o.Tracer.RecordsSince(mark) {
		if rec.Depth != 0 || rec.TID != 1 {
			continue
		}
		st := StageSpan{
			Name:    rec.Name,
			StartUs: rec.Start.Microseconds(),
			DurUs:   rec.Dur.Microseconds(),
		}
		if len(rec.Attrs) > 0 {
			st.Attrs = map[string]any{}
			for _, a := range rec.Attrs {
				st.Attrs[a.Key] = a.Value
			}
		}
		r.Stages = append(r.Stages, st)
	}
	sort.SliceStable(r.Stages, func(i, j int) bool { return r.Stages[i].StartUs < r.Stages[j].StartUs })
	// Counters and histograms are reported as deltas against the run's
	// baseline; gauges (high-water marks, pool sizes, cache ratios) are
	// point-in-time values, so they land at their absolute reading.
	gauges := o.Metrics.Gauges()
	for k, v := range o.Metrics.Snapshot() {
		if _, isGauge := gauges[k]; isGauge {
			if v != 0 {
				r.Counters[k] = v
			}
			continue
		}
		if d := v - base[k]; d != 0 {
			r.Counters[k] = d
		}
	}
	return r
}

// WriteJSON marshals v (one RunReport, or a slice of them for multi-
// spec runs) as indented JSON to path.
func WriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
