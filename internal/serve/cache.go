// Package serve is the synthesis pipeline as a long-running service:
// mcsyn-as-a-service. It wraps the pure, deterministic stage pipeline
// (parse → reach → analyze → repair → cover → verify) in
//
//   - a content-addressed stage cache: every stage result is keyed by
//     the sha-256 of its transitive inputs — the canonicalized .g
//     source plus the slice of the configuration fingerprint that
//     stage depends on — so a repeated spec costs a hash lookup and a
//     config flip recomputes exactly the stages whose inputs changed;
//   - singleflight request coalescing: N concurrent submissions of the
//     same stage key run the computation once and share the result;
//   - a job queue sharded over the internal/par pool with bounded
//     in-flight jobs and 429 backpressure;
//   - an HTTP API (POST /synth, GET /job/{id} with SSE progress,
//     GET /result/{digest}, /metrics).
//
// Everything rests on the per-stage purity the rest of the repo
// enforces: reprolint's determinism analyzer and the differential test
// net guarantee that identical inputs produce byte-identical stage
// outputs at any worker count, which is exactly the property that
// makes a stage result safe to cache and to share across requests.
package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"

	"repro/internal/obs"
)

// Stage names, in pipeline order. Each is one cache namespace and one
// label value of the serve_cache_{hits,misses}_total counters.
var Stages = []string{"parse", "reach", "analyze", "repair", "netlist"}

// Canonicalize normalizes a .g source for content addressing: CRLF and
// CR line endings become LF, trailing whitespace is stripped per line,
// and the text ends with exactly one newline. The transformations are
// all invisible to the parser, so two sources with equal canonical
// forms parse to the same net — the property that makes the canonical
// text a sound cache key.
func Canonicalize(src string) string {
	src = strings.ReplaceAll(src, "\r\n", "\n")
	src = strings.ReplaceAll(src, "\r", "\n")
	lines := strings.Split(src, "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " \t")
	}
	out := strings.Join(lines, "\n")
	out = strings.TrimRight(out, "\n")
	return out + "\n"
}

// SHA is the hex sha-256 of a string — the digest primitive of every
// cache key and of the served netlist texts.
func SHA(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// stageKey derives one stage's cache key from the stage name and its
// input digests. The chaining (each stage keys on its predecessor's
// key) means a source or config change invalidates exactly the suffix
// of the pipeline it reaches.
func stageKey(stage string, inputs ...string) string {
	return SHA(stage + "\x00" + strings.Join(inputs, "\x00"))
}

// Config is the synthesis configuration a request selects. Only fields
// that can change a stage's output participate in that stage's cache
// key: MaxModels fingerprints the repair stage, RS and Share the
// netlist stage. Worker counts are
// deliberately absent — the repo's determinism guarantee (byte-identical
// netlists at any parallelism) is what proves they can never make a
// cached entry stale.
type Config struct {
	// RS selects the standard RS-implementation (default: C-elements).
	RS bool `json:"rs,omitempty"`
	// Share enables Section-VI generalized-MC gate sharing.
	Share bool `json:"share,omitempty"`
	// MaxModels bounds SAT model enumeration per strategy pair
	// (0 = encode default). It can change which labellings repair
	// enumerates, so it is part of the repair fingerprint.
	MaxModels int `json:"maxmodels,omitempty"`
}

// RepairFP fingerprints the configuration slice the repair stage
// depends on.
func (c Config) RepairFP() string {
	return fmt.Sprintf("maxmodels=%d", c.MaxModels)
}

// NetlistFP fingerprints the additional configuration the cover/netlist
// stage depends on.
func (c Config) NetlistFP() string {
	return fmt.Sprintf("rs=%t|share=%t", c.RS, c.Share)
}

// Cache is the bounded, content-addressed stage cache: one LRU over
// all stages (keys are stage-namespaced), per-stage hit/miss counters,
// and an eviction hook for derived indexes. Entries are immutable once
// inserted; capacity eviction is the only removal. Because keys are
// content digests, eviction can only ever cost a recomputation — a
// config or source change produces a different key, so a stale read is
// structurally impossible.
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used

	hits, misses map[string]*obs.Counter
	onEvict      func(stage, key string, val any)
}

type cacheEntry struct {
	stage, key string
	val        any
}

// DefaultCacheEntries bounds the stage cache when Options.CacheEntries
// is zero: every stage entry of ~200 mid-size specs.
const DefaultCacheEntries = 1024

// NewCache builds a cache holding at most capacity entries across all
// stages (0 = DefaultCacheEntries). Counters register on reg (a nil
// registry hands out inert counters).
func NewCache(capacity int, reg *obs.Registry) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheEntries
	}
	c := &Cache{
		cap:     capacity,
		entries: map[string]*list.Element{},
		order:   list.New(),
		hits:    map[string]*obs.Counter{},
		misses:  map[string]*obs.Counter{},
	}
	for _, st := range Stages {
		c.hits[st] = reg.Counter("serve_cache_hits_total", "stage", st)
		c.misses[st] = reg.Counter("serve_cache_misses_total", "stage", st)
	}
	return c
}

// Get returns the cached value for one stage key, marking it most
// recently used and counting the hit or miss.
func (c *Cache) Get(stage, key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.hits[stage].Add(1)
		return el.Value.(*cacheEntry).val, true
	}
	c.misses[stage].Add(1)
	return nil, false
}

// Peek is Get without touching the counters or the LRU order — for
// admission fast paths that answer from cache without running a job.
func (c *Cache) Peek(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		return el.Value.(*cacheEntry).val, true
	}
	return nil, false
}

// Put inserts a stage result, evicting least-recently-used entries
// beyond capacity.
func (c *Cache) Put(stage, key string, val any) {
	c.mu.Lock()
	var evicted []*cacheEntry
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.order.MoveToFront(el)
	} else {
		c.entries[key] = c.order.PushFront(&cacheEntry{stage: stage, key: key, val: val})
		for c.order.Len() > c.cap {
			back := c.order.Back()
			ent := back.Value.(*cacheEntry)
			c.order.Remove(back)
			delete(c.entries, ent.key)
			evicted = append(evicted, ent)
		}
	}
	onEvict := c.onEvict
	c.mu.Unlock()
	if onEvict != nil {
		for _, ent := range evicted {
			onEvict(ent.stage, ent.key, ent.val)
		}
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// flightGroup is a minimal singleflight: concurrent Do calls with the
// same key share one execution of fn. The stdlib has no singleflight
// and this repo takes no dependencies, so the classic pattern is
// reimplemented here: a per-key call record with a done channel,
// waiters block on it, the winner broadcasts by closing.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

type flightCall struct {
	done    chan struct{}
	val     any
	err     error
	waiters int // callers that joined the flight, guarded by flightGroup.mu
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: map[string]*flightCall{}}
}

// Do runs fn once per concurrent key, returning the shared result and
// whether this caller joined an in-progress flight instead of starting
// one. A panic in fn is recovered into the error every caller of the
// flight receives, and the key is released before the waiters wake, so
// a panicking computation can neither strand them nor its key.
func (g *flightGroup) Do(key string, fn func() (any, error)) (val any, err error, coalesced bool) {
	g.mu.Lock()
	if call, ok := g.m[key]; ok {
		call.waiters++
		g.mu.Unlock()
		<-call.done
		return call.val, call.err, true
	}
	call := &flightCall{done: make(chan struct{})}
	g.m[key] = call
	g.mu.Unlock()

	call.val, call.err = recovered(fn)

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(call.done)
	return call.val, call.err, false
}

// recovered calls fn, turning a panic into an error.
func recovered(fn func() (any, error)) (val any, err error) {
	defer func() {
		if r := recover(); r != nil {
			val, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}
