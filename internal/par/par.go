// Package par is the bounded worker pool shared by the analysis and
// benchmark fan-outs: embarrassingly-parallel loops (per-signal region
// decomposition, per-signal MC checking, per-benchmark synthesis) run on
// up to GOMAXPROCS goroutines while callers keep deterministic output by
// writing results into index-addressed slots.
//
// Two pool shapes live here. ForEach is the batch fan-out: a known task
// count, drained to completion, panic re-raised on the caller. Pool is
// the long-running shard pool of the synthesis server: a fixed worker
// set pulling from a bounded queue whose fullness is the server's
// backpressure signal, with panics contained per task so one poisoned
// job cannot take a shard down.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Workers resolves a requested worker count: n when positive, otherwise
// GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// TaskHook observes one completed pool task: its index, the worker that
// ran it, and when/how long it ran. Hooks fire exactly once per task,
// on the worker goroutine that executed it, and only for tasks that
// return normally.
type TaskHook func(i, worker int, start time.Time, d time.Duration)

// ForEach runs fn(i) for every i in [0, n) on at most workers goroutines
// (0 = GOMAXPROCS) and returns when all calls are done. With one worker,
// or n < 2, it degrades to a plain loop on the calling goroutine.
// Determinism is the caller's contract: fn must write its result into a
// slot addressed by i, never append to shared state.
//
// A panic in any task is re-raised on the calling goroutine once every
// claimed task has finished, matching the sequential path's behaviour.
func ForEach(n, workers int, fn func(i int)) {
	ForEachHook(n, workers, fn, nil)
}

// ForEachHook is ForEach with an optional per-task observation hook
// (nil = unobserved; the pool then takes no clock readings).
//
// The caller works: it and workers-1 helper goroutines claim indices
// from one atomic cursor, the caller as worker 0, so no task waits in a
// feed channel for a goroutine to wake. The wait counts tasks, not
// goroutines: ForEachHook returns once the last task has finished, and
// a helper that first runs after every index is claimed makes one
// failed claim and exits. A task that panics stops further claims: the
// first panic is kept, the unclaimed indices are released, and the
// panic is re-raised on the caller after the tasks already claimed
// have finished.
func ForEachHook(n, workers int, fn func(i int), hook TaskHook) {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	run := func(i, worker int) {
		if hook == nil {
			fn(i)
			return
		}
		start := time.Now() //reprolint:ordered hook-only timing observation; never reaches pipeline output
		fn(i)
		hook(i, worker, start, time.Since(start)) //reprolint:ordered hook-only timing observation; never reaches pipeline output
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			run(i, 0)
		}
		return
	}
	var (
		cursor   atomic.Int64   // the next unclaimed index
		pending  sync.WaitGroup // tasks not yet finished or released
		failOnce sync.Once
		failure  any
	)
	pending.Add(n)
	work := func(worker int) {
		defer func() {
			if r := recover(); r != nil {
				failOnce.Do(func() { failure = r })
				pending.Done() // the task that panicked
				if claimed := int(cursor.Swap(int64(n))); claimed < n {
					pending.Add(claimed - n)
				}
			}
		}()
		for i := int(cursor.Add(1) - 1); i < n; i = int(cursor.Add(1) - 1) {
			run(i, worker)
			pending.Done()
		}
	}
	for w := 1; w < workers; w++ {
		go work(w)
	}
	work(0)
	pending.Wait()
	if failure != nil {
		panic(failure)
	}
}

// Pool is a long-running bounded worker pool: a fixed set of shard
// goroutines pulling tasks from a bounded queue. Unlike ForEach it is
// built for servers — tasks arrive over time, the queue length is the
// backpressure signal, and a panicking task is contained (reported to
// the OnPanic hook) instead of tearing the pool down. Determinism is
// still the submitter's contract: tasks must not depend on which shard
// runs them.
type Pool struct {
	queue   chan func()
	wg      sync.WaitGroup
	workers int

	mu       sync.Mutex
	closed   bool
	inflight int

	// OnPanic, when non-nil, observes a recovered task panic. Set it
	// before the first Submit; it runs on the worker goroutine.
	OnPanic func(v any)
}

// NewPool starts a pool of `workers` shard goroutines (0 = GOMAXPROCS)
// over a queue of `depth` waiting tasks (minimum 1). TrySubmit fails
// once `depth` tasks are queued on top of the `workers` running ones —
// that bound is the caller's backpressure line.
func NewPool(workers, depth int) *Pool {
	workers = Workers(workers)
	if depth < 1 {
		depth = 1
	}
	p := &Pool{queue: make(chan func(), depth), workers: workers}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() { //reprolint:go long-lived shard worker owned by Pool; lifecycle bounded by Close
			defer p.wg.Done()
			for fn := range p.queue {
				p.run(fn)
			}
		}()
	}
	return p
}

// run executes one task with panic containment.
func (p *Pool) run(fn func()) {
	defer func() {
		p.mu.Lock()
		p.inflight--
		p.mu.Unlock()
		if v := recover(); v != nil && p.OnPanic != nil {
			p.OnPanic(v)
		}
	}()
	fn()
}

// TrySubmit enqueues fn unless the queue is full or the pool closed.
// The false return is the backpressure signal servers turn into a 429.
func (p *Pool) TrySubmit(fn func()) bool {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return false
	}
	select {
	case p.queue <- fn:
		p.inflight++
		p.mu.Unlock()
		return true
	default:
		p.mu.Unlock()
		return false
	}
}

// Workers returns the pool's shard count.
func (p *Pool) Workers() int { return p.workers }

// Depth returns the number of submitted tasks not yet finished —
// queued plus running.
func (p *Pool) Depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inflight
}

// Close stops intake and waits for every queued task to finish. Safe to
// call twice.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	close(p.queue)
	p.wg.Wait()
}
