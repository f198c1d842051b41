package par

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}

// TestForEachSequential pins the size-1 contract: tasks run in index
// order on the calling goroutine, so callers may rely on strictly
// deterministic execution.
func TestForEachSequential(t *testing.T) {
	const n = 100
	var order []int
	var mu sync.Mutex
	ForEach(n, 1, func(i int) {
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
	})
	if len(order) != n {
		t.Fatalf("ran %d tasks, want %d", len(order), n)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("task %d ran at position %d; sequential pool must preserve order", got, i)
		}
	}
}

// TestForEachParallel checks the GOMAXPROCS pool: every index runs
// exactly once and worker ids stay inside the pool bound.
func TestForEachParallel(t *testing.T) {
	const n = 500
	ran := make([]int32, n)
	bound := Workers(0)
	var badWorker atomic.Int32
	ForEachHook(n, 0, func(i int) {
		atomic.AddInt32(&ran[i], 1)
	}, func(i, worker int, start time.Time, d time.Duration) {
		if worker < 0 || worker >= bound {
			badWorker.Store(int32(worker))
		}
	})
	for i, c := range ran {
		if c != 1 {
			t.Fatalf("task %d ran %d times", i, c)
		}
	}
	if w := badWorker.Load(); w != 0 {
		t.Fatalf("worker id %d outside pool of %d", w, bound)
	}
}

// TestForEachPanicPropagation: a panicking task must surface on the
// calling goroutine — for the concurrent pool as for the plain loop —
// and must not wedge the feeder.
func TestForEachPanicPropagation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r != "boom" {
					t.Errorf("workers=%d: recovered %v, want \"boom\"", workers, r)
				}
			}()
			ForEach(100, workers, func(i int) {
				if i == 3 {
					panic("boom")
				}
			})
			t.Errorf("workers=%d: ForEach returned instead of panicking", workers)
		}()
	}
}

// TestForEachAllPanic: every task panicking must still drain the feeder
// and re-raise exactly one panic.
func TestForEachAllPanic(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Error("no panic propagated")
		}
	}()
	ForEach(64, 4, func(i int) { panic(i) })
	t.Error("ForEach returned")
}

// TestHookFiresOncePerTask: the per-task timing hook must fire exactly
// once per completed task, with a plausible start/duration, in both
// pool shapes.
func TestHookFiresOncePerTask(t *testing.T) {
	for _, workers := range []int{1, 0} {
		const n = 200
		fired := make([]int32, n)
		epoch := time.Now()
		var badTime atomic.Bool
		ForEachHook(n, workers, func(i int) {
			time.Sleep(time.Microsecond)
		}, func(i, worker int, start time.Time, d time.Duration) {
			atomic.AddInt32(&fired[i], 1)
			if start.Before(epoch) || d < 0 {
				badTime.Store(true)
			}
		})
		for i, c := range fired {
			if c != 1 {
				t.Fatalf("workers=%d: hook fired %d times for task %d, want exactly 1", workers, c, i)
			}
		}
		if badTime.Load() {
			t.Fatalf("workers=%d: hook saw start before the loop began or negative duration", workers)
		}
	}
}

// TestHookNotCalledForPanickedTask: hooks only observe tasks that
// return normally.
func TestHookNotCalledForPanickedTask(t *testing.T) {
	var hooked atomic.Int32
	func() {
		defer func() { recover() }()
		ForEachHook(8, 2, func(i int) {
			if i == 0 {
				panic("first")
			}
		}, func(i, worker int, start time.Time, d time.Duration) {
			if i == 0 {
				t.Error("hook fired for panicked task")
			}
			hooked.Add(1)
		})
	}()
	if hooked.Load() > 7 {
		t.Errorf("hook fired %d times for 7 surviving tasks", hooked.Load())
	}
}

// goid returns the calling goroutine's id, read from its stack header
// ("goroutine 7 [running]:").
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	f := strings.Fields(string(buf))
	if len(f) < 2 || f[0] != "goroutine" {
		panic("par test: unexpected stack header " + string(buf))
	}
	return f[1]
}

// wait blocks until ch is closed or the deadline passes, and reports
// which came first.
func wait(ch <-chan struct{}, deadline time.Time) bool {
	select {
	case <-ch:
		return true
	case <-time.After(time.Until(deadline)):
		return false
	}
}

// TestForEachCallerRunsTasks pins the caller-works shape: the calling
// goroutine claims tasks itself, as worker 0, beside its helpers. Every
// task a helper runs waits until the caller has run one, so a pool
// whose caller only feeds its workers fails here once the deadline
// passes.
func TestForEachCallerRunsTasks(t *testing.T) {
	caller := goid()
	callerRan := make(chan struct{})
	var once sync.Once
	var onCaller, wrongWorker atomic.Int32
	deadline := time.Now().Add(time.Second)
	ForEachHook(32, 4, func(i int) {
		if goid() == caller {
			onCaller.Add(1)
			once.Do(func() { close(callerRan) })
			return
		}
		wait(callerRan, deadline)
	}, func(i, worker int, start time.Time, d time.Duration) {
		if (goid() == caller) != (worker == 0) {
			wrongWorker.Add(1)
		}
	})
	if onCaller.Load() == 0 {
		t.Fatal("the calling goroutine ran no task")
	}
	if w := wrongWorker.Load(); w != 0 {
		t.Fatalf("%d tasks reported a worker id other than 0 on the caller, or 0 on a helper", w)
	}
}

// TestForEachWaitsForHelperTasks: the pool returns only after every
// task has finished, a slow one that a helper claimed included. The
// caller's first task waits until a helper has started one, so a helper
// is sure to hold a task when the caller runs out of indices.
func TestForEachWaitsForHelperTasks(t *testing.T) {
	caller := goid()
	helperIn := make(chan struct{})
	var once sync.Once
	const n = 8
	finished := make([]atomic.Bool, n)
	deadline := time.Now().Add(5 * time.Second)
	var helperTasks atomic.Int32
	ForEach(n, 4, func(i int) {
		if goid() == caller {
			wait(helperIn, deadline)
		} else {
			helperTasks.Add(1)
			once.Do(func() { close(helperIn) })
			time.Sleep(30 * time.Millisecond)
		}
		finished[i].Store(true)
	})
	for i := range finished {
		if !finished[i].Load() {
			t.Fatalf("ForEach returned before task %d finished", i)
		}
	}
	if helperTasks.Load() == 0 {
		t.Fatal("no helper ran a task")
	}
}

// TestForEachCallerPanicWaitsForHelpers: a panic in a task the caller
// runs is re-raised only after the tasks the helpers claimed have
// finished, so no task is still running when the panic unwinds the
// caller.
func TestForEachCallerPanicWaitsForHelpers(t *testing.T) {
	caller := goid()
	helperIn := make(chan struct{})
	var once sync.Once
	var helperDone, callerPanicked atomic.Bool
	deadline := time.Now().Add(5 * time.Second)
	func() {
		defer func() {
			if r := recover(); r != "caller" {
				t.Errorf("recovered %v, want the caller's panic", r)
			}
		}()
		ForEach(2, 2, func(i int) {
			if goid() == caller {
				wait(helperIn, deadline)
				callerPanicked.Store(true)
				panic("caller")
			}
			once.Do(func() { close(helperIn) })
			time.Sleep(30 * time.Millisecond)
			helperDone.Store(true)
		})
		t.Error("ForEach returned instead of panicking")
	}()
	if !callerPanicked.Load() {
		t.Fatal("the caller ran no task")
	}
	if !helperDone.Load() {
		t.Fatal("the caller's panic was re-raised while a helper's task was still running")
	}
}

// TestForEachLeavesNoHelpers: no helper goroutine outlives the call.
// The pool waits for tasks, not goroutines, so a helper may still be
// making its last, failed claim when ForEach returns; the goroutine
// count must fall back to its baseline within a deadline, after calls
// of every shape, panicking ones included.
func TestForEachLeavesNoHelpers(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, n := range []int{0, 1, 2, 3, 17, 200} {
		for _, workers := range []int{1, 2, 4, 8} {
			ForEach(n, workers, func(i int) {})
			func() {
				defer func() { recover() }()
				ForEach(n, workers, func(i int) {
					if i == n/2 {
						panic("boom")
					}
				})
			}()
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 5 s after the calls returned, %d before them", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
