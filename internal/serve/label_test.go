package serve

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
)

// TestStageComputeLabel pins that a cache miss computes under the
// pprof label stage=<name>, so a server CPU profile splits by stage,
// and that the computing goroutine carries no stage label once the
// stage has resolved. It reads labels from a goroutine profile, which
// needs no CPU sampling.
func TestStageComputeLabel(t *testing.T) {
	s := newTestServer(t, Options{})
	parked, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		stage(s, &Trace{}, "repair", stageKey("repair", "label-test"), func() *repairResult {
			park(parked, release)
			return &repairResult{}
		})
		park(parked, release)
	}()
	<-parked
	if got, want := parkedLabels(t), `{"stage":"repair"}`; got != want {
		t.Errorf("labels inside compute = %q, want %q", got, want)
	}
	release <- struct{}{}
	<-parked
	if got := parkedLabels(t); got != "" {
		t.Errorf("labels after the stage resolved = %q, want none", got)
	}
	release <- struct{}{}
	<-done
}

// park signals parked, then blocks until release: parkedLabels finds
// the blocked goroutine by this frame.
func park(parked chan<- struct{}, release <-chan struct{}) {
	parked <- struct{}{}
	<-release
}

// parkedLabels returns the pprof labels of the goroutine in park, as a
// debug=1 goroutine profile prints them ("" when it carries none).
func parkedLabels(t *testing.T) string {
	t.Helper()
	// Until the runtime's finalizer goroutine has first run, a goroutine
	// profile (Go 1.24) can list it in place of another goroutine, the
	// parked one included. Running one finalizer rules that out.
	ran := make(chan struct{})
	runtime.SetFinalizer(new([64]byte), func(*[64]byte) { close(ran) })
	runtime.GC()
	<-ran
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	for _, rec := range strings.Split(buf.String(), "\n\n") {
		if !strings.Contains(rec, "repro/internal/serve.park+") {
			continue
		}
		for _, line := range strings.Split(rec, "\n") {
			if labels, ok := strings.CutPrefix(line, "# labels: "); ok {
				return labels
			}
		}
		return ""
	}
	t.Fatalf("no goroutine in park:\n%s", buf.String())
	return ""
}
