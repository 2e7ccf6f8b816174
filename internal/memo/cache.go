// Package memo provides the content-addressed result cache behind the
// repeated fixed-point analyses. The DM/EDF message response-time
// analyses and the compositions built on them (holistic, topology,
// batch sweeps, the E9–E13 experiment grids) are pure functions of a
// small value: the multiset of stream attributes, the token-cycle
// bound, and the analysis options. Large parameter studies evaluate
// the same value over and over — across batch entries, across fixed-
// point iterations whose inputs did not change, and across experiment
// trials and policies. The cache maps a canonical hash of that value
// (see key.go) to the computed bounds, so identical fixed points are
// solved once.
//
// Contract: cached and uncached evaluation are byte-identical. The
// canonical key is order-insensitive exactly where the analysis is
// order-insensitive (see key.go for the deadline-tie caveat under DM),
// and every wrapper returns a fresh slice, so callers may mutate
// results freely. The cache is safe for concurrent use from any number
// of goroutines: it is sharded, each shard behind its own RWMutex.
//
// Every lookup takes one path: the canonical SHA-256 key (key.go or
// EncKey), a Get on the sharded table, and a Put on a miss.
//
// Memory is bounded: New(maxEntries) caps the total entry count
// (default 1<<16 entries; a cached value is one []Ticks of the stream
// count, so the default bound is a few MiB at typical set sizes). A
// full shard evicts an arbitrary resident entry per insert —
// random replacement, not LRU, because eviction only ever costs a
// recomputation, never correctness, and random replacement needs no
// per-hit bookkeeping on the hot read path.
package memo

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"profirt/internal/obs"
)

// Key is the content address of one analysis invocation: a SHA-256
// digest of the canonical encoding built in key.go.
type Key [32]byte

// shardCount must be a power of two (shard selection masks the key's
// first bytes).
const shardCount = 64

// defaultMaxEntries bounds a cache built with New(0).
const defaultMaxEntries = 1 << 16

type shard struct {
	mu sync.RWMutex
	m  map[Key]any
}

// Cache is a bounded, sharded, content-addressed result table.
// The zero value is not usable; construct with New. A nil *Cache is a
// valid "caching disabled" value: Get misses and Put is a no-op, so
// every layer can thread an optional cache without branching.
type Cache struct {
	maxPerShard int
	hits        atomic.Int64
	misses      atomic.Int64
	evictions   atomic.Int64
	shards      [shardCount]shard
	// lat, when set (SetLatency), times a sample of Get probes. An
	// atomic pointer because an Engine may attach metrics to a cache
	// already shared with in-flight lookups; sampleTick spreads the
	// clock cost (two wall reads per timed probe) over
	// lookupSampleEvery lookups, keeping the hot path at one atomic
	// add on machines where reading the clock costs as much as the
	// probe itself.
	lat        atomic.Pointer[obs.CacheMetrics]
	sampleTick atomic.Uint64
}

// lookupSampleEvery is the Get-latency sampling cadence: one probe in
// every lookupSampleEvery is timed. Must be a power of two. Sampling
// is sound here because probe latency is independent of the sampling
// counter; the histogram is a uniform sample of the distribution.
const lookupSampleEvery = 16

// New builds a cache holding at most maxEntries results; maxEntries
// <= 0 selects the default bound (1<<16).
func New(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = defaultMaxEntries
	}
	per := maxEntries / shardCount
	if per < 1 {
		per = 1
	}
	c := &Cache{maxPerShard: per}
	for i := range c.shards {
		c.shards[i].m = make(map[Key]any)
	}
	return c
}

func (c *Cache) shardFor(k Key) *shard {
	return &c.shards[binary.LittleEndian.Uint64(k[:8])&(shardCount-1)]
}

// SetLatency attaches lookup-latency instrumentation: one in every
// lookupSampleEvery subsequent Gets records its duration into m.
// Observational only — timing never changes what Get returns. m must
// outlive the cache's use; nil detaches.
func (c *Cache) SetLatency(m *obs.CacheMetrics) {
	if c == nil {
		return
	}
	c.lat.Store(m)
}

// Get returns the value stored under k. Values must be treated as
// immutable by every reader (the analysis wrappers copy before
// returning). Safe on a nil receiver (always a miss).
func (c *Cache) Get(k Key) (any, bool) {
	if c == nil {
		return nil, false
	}
	lm := c.lat.Load()
	if lm != nil && c.sampleTick.Add(1)&(lookupSampleEvery-1) != 0 {
		lm = nil
	}
	var t0 time.Time
	if lm != nil {
		t0 = lm.Clock.Now()
	}
	s := c.shardFor(k)
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	if lm != nil {
		lm.Lookup.Observe(lm.Clock.Now().Sub(t0))
	}
	return v, ok
}

// Put stores v under k, evicting an arbitrary resident entry when the
// shard is full. Concurrent Puts of the same key are benign: the key is
// content-addressed, so every writer stores an equal value. Stored
// values must be treated as immutable by every future reader. Safe on a
// nil receiver (no-op).
func (c *Cache) Put(k Key, v any) {
	if c == nil {
		return
	}
	s := c.shardFor(k)
	s.mu.Lock()
	if _, resident := s.m[k]; !resident && len(s.m) >= c.maxPerShard {
		for victim := range s.m {
			delete(s.m, victim)
			c.evictions.Add(1)
			break
		}
	}
	s.m[k] = v
	s.mu.Unlock()
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Reset drops every entry and zeroes the counters.
func (c *Cache) Reset() {
	if c == nil {
		return
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.m = make(map[Key]any)
		s.mu.Unlock()
	}
	c.hits.Store(0)
	c.misses.Store(0)
	c.evictions.Store(0)
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	// Hits and Misses count lookup outcomes.
	Hits, Misses int64
	// Evictions counts entries displaced by the memory bound.
	Evictions int64
	// Entries is the resident entry count.
	Entries int
}

// Stats snapshots the counters. Safe on a nil receiver (all zero).
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
	}
}
