// Package certcache is a content-addressed store for certification
// results. The JSR-based stability test is a pure function of its
// canonicalized request (matrix set + budgets), so its verdicts are
// perfectly memoizable: the cache maps inputhash keys to the canonical
// response bytes the service returned for them.
//
// Three layers compose:
//
//   - An in-memory LRU front bounds resident memory and serves repeat
//     requests without touching the disk.
//
//   - An optional persistent layer (internal/store's crash-safe
//     segmented log) survives restarts. Every persisted record is
//     CRC-framed and fsync-acknowledged; a corrupt entry is evicted
//     and recomputed — corruption is a cache miss, never a request
//     failure. A *failing* disk (ENOSPC, permission loss, IO errors)
//     demotes the cache to memory-only: requests keep being served
//     from memory and fresh computation, a health flag records the
//     demotion, and a periodic recovery probe re-enables the store
//     once it heals. Disk trouble degrades the cache, never the
//     service. A store whose background compaction fails but whose
//     appends still work is degraded-not-dead: entries keep
//     persisting, health reports the condition, and compaction
//     retries with backoff.
//
//   - Singleflight deduplication: N concurrent requests for the same
//     key perform exactly one computation; the followers block on the
//     leader's flight and receive the same bytes (and its error, if
//     the computation fails — errors are not cached).
//
// The stored value is opaque bytes. Storing the encoded response (as
// the service does) rather than a decoded struct is what makes the
// byte-identical-responses guarantee trivial: a hit literally replays
// the leader's bytes.
package certcache

import (
	"bytes"
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"adaptivertc/internal/inputhash"
	"adaptivertc/internal/store"
)

// Key addresses one cached certification result.
type Key = inputhash.Sum

// Outcome classifies how a GetOrCompute call was served.
type Outcome int

const (
	// Miss: this call ran the computation.
	Miss Outcome = iota
	// HitMemory: served from the in-memory LRU.
	HitMemory
	// HitDisk: served from the persistent store (and promoted to memory).
	HitDisk
	// Shared: attached to a concurrent in-flight computation for the
	// same key and received its result.
	Shared
)

// String returns the X-Cache header rendering of the outcome.
func (o Outcome) String() string {
	switch o {
	case HitMemory:
		return "hit"
	case HitDisk:
		return "hit-disk"
	case Shared:
		return "shared"
	default:
		return "miss"
	}
}

// Stats is a snapshot of the cache counters. All counters are
// monotonic over the life of the Cache; Degraded and DegradedReason
// describe the current health of the persistent layer.
type Stats struct {
	Hits       int64 // memory hits
	DiskHits   int64 // disk hits (promoted to memory)
	Misses     int64 // computations actually run
	Shared     int64 // calls served by someone else's in-flight computation
	Corrupt    int64 // persisted entries evicted as corrupt
	WriteErrs  int64 // best-effort persistence failures
	ReadErrs   int64 // store read failures other than not-exist/corrupt
	Demotions  int64 // times the cache fell back to memory-only
	Recoveries int64 // times a probe restored the persistent layer
	Entries    int   // current in-memory entries
	BytesInMem int64 // current in-memory body bytes

	// Degraded is true while the persistent layer is offline after a
	// disk fault; DegradedReason records the error that demoted it.
	Degraded       bool
	DegradedReason string
}

// Options configures a Cache. The zero value is a memory-only cache
// with the default capacity.
type Options struct {
	// Capacity is the maximum number of in-memory entries; ≤ 0 selects
	// 1024. Eviction is least-recently-used.
	Capacity int
	// Dir, when non-empty, persists every computed entry to a segmented
	// log in this directory (created if absent) and consults it on
	// memory misses.
	Dir string
	// FS is the filesystem the persistent layer (the segmented
	// store.Log) runs on; nil selects store.OSFS. Tests and the chaos
	// harness substitute a faulty FS.
	FS store.FS
	// SegmentBytes is the log's segment rotation threshold; ≤ 0 selects
	// the store default (64 MiB).
	SegmentBytes int64
	// ProbeInterval bounds how often a degraded cache re-probes the
	// disk; ≤ 0 selects 30 seconds. Probes run lazily from cache
	// operations, so an idle degraded cache costs nothing.
	ProbeInterval time.Duration
}

// defaultProbeInterval is the degraded-mode re-probe cadence.
const defaultProbeInterval = 30 * time.Second

// Cache is a concurrency-safe content-addressed certificate store.
type Cache struct {
	capacity      int
	log           *store.Log // nil for a memory-only cache
	probeInterval time.Duration
	now           func() time.Time // swapped in tests

	mu        sync.Mutex
	lru       *list.List // front = most recent; values are *memEntry
	index     map[Key]*list.Element
	inflight  map[Key]*flight
	stats     Stats
	degraded  bool
	lastProbe time.Time // last degraded-mode probe attempt
}

type memEntry struct {
	key  Key
	body []byte
}

// flight is one in-progress computation; followers block on done.
type flight struct {
	done chan struct{}
	body []byte
	err  error
}

// New creates a cache. With a Dir, the segmented log is opened (or
// created) there. A Dir whose log cannot be opened at construction
// time is an operator error and fails New — in particular, a log whose
// sealed segments rotted refuses to open rather than silently dropping
// acknowledged entries; faults after construction demote instead.
func New(opt Options) (*Cache, error) {
	if opt.Capacity <= 0 {
		opt.Capacity = 1024
	}
	if opt.FS == nil {
		opt.FS = store.OSFS{}
	}
	if opt.ProbeInterval <= 0 {
		opt.ProbeInterval = defaultProbeInterval
	}
	c := &Cache{
		capacity:      opt.Capacity,
		probeInterval: opt.ProbeInterval,
		now:           time.Now,
		lru:           list.New(),
		index:         make(map[Key]*list.Element),
		inflight:      make(map[Key]*flight),
	}
	if opt.Dir != "" {
		l, err := store.Open(opt.Dir, store.Options{FS: opt.FS, SegmentBytes: opt.SegmentBytes})
		if err != nil {
			return nil, fmt.Errorf("certcache: opening store in %s: %w", opt.Dir, err)
		}
		c.log = l
	}
	return c, nil
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.lru.Len()
	s.Degraded = c.degraded
	return s
}

// Persistent reports whether the cache has a persistent layer at all
// (a memory-only cache never will, regardless of degraded state).
func (c *Cache) Persistent() bool { return c.log != nil }

// StoreStats returns the persistent layer's counters and health; the
// zero value for a memory-only cache. The server folds
// CompactionDegraded into /healthz: failed compaction with working
// appends is degraded-not-dead.
func (c *Cache) StoreStats() store.Stats {
	if c.log == nil {
		return store.Stats{}
	}
	return c.log.Stats()
}

// Close flushes and releases the persistent layer. The in-memory cache
// remains usable (memory-only) after Close; it exists so shutdown can
// seal the log cleanly.
func (c *Cache) Close() error {
	if c.log == nil {
		return nil
	}
	return c.log.Close()
}

// Degraded reports whether the persistent layer is currently offline
// (memory-only operation after a disk fault), with the demoting error.
func (c *Cache) Degraded() (bool, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.degraded, c.stats.DegradedReason
}

// demoteLocked switches the cache to memory-only after a disk fault.
// Caller holds c.mu. Repeat faults while already degraded are ignored:
// the first error is the diagnostic one.
func (c *Cache) demoteLocked(op string, err error) {
	if c.degraded {
		return
	}
	c.degraded = true
	c.stats.Demotions++
	c.stats.DegradedReason = fmt.Sprintf("%s: %v", op, err)
	c.lastProbe = c.now()
}

// diskUsable reports whether the persistent layer should be consulted.
// While degraded, at most one caller per probe interval attempts a
// recovery probe; everyone else skips the disk immediately.
func (c *Cache) diskUsable() bool {
	if c.log == nil {
		return false
	}
	c.mu.Lock()
	if !c.degraded {
		c.mu.Unlock()
		return true
	}
	if c.now().Sub(c.lastProbe) < c.probeInterval {
		c.mu.Unlock()
		return false
	}
	c.lastProbe = c.now()
	c.mu.Unlock()
	return c.Probe()
}

// probeKey/probePayload are written and read back by recovery probes;
// corruption injected by a faulty FS therefore also fails the probe.
const probeKey = ".probe"

var probePayload = []byte("adaserved certcache recovery probe\n")

// Probe attempts a full put-get-delete round trip on the persistent
// store and, on success, restores disk operation. It returns the
// resulting health (true = persistent layer usable). Probes are cheap
// and safe to call at any time; a healthy cache returns true
// immediately. A probe through the log also repairs a torn tail left
// by the fault that demoted the cache: the store truncates the partial
// frame before the probe's append.
func (c *Cache) Probe() bool {
	if c.log == nil {
		return false
	}
	c.mu.Lock()
	if !c.degraded {
		c.mu.Unlock()
		return true
	}
	c.mu.Unlock()

	ok := c.log.Put(probeKey, probePayload) == nil
	if ok {
		got, present, err := c.log.Get(probeKey)
		ok = err == nil && present && bytes.Equal(got, probePayload)
	}
	if !ok {
		return false
	}
	//lint:ignore droppederr best-effort cleanup: a lingering probe record is harmless and the next probe overwrites it
	c.log.Delete(probeKey)
	c.mu.Lock()
	if c.degraded {
		c.degraded = false
		c.stats.DegradedReason = ""
		c.stats.Recoveries++
	}
	c.mu.Unlock()
	return true
}

// Get returns the cached bytes for key without ever computing: memory
// first, then the persistent store (promoting a disk hit to memory).
// It does not join an in-flight computation — callers that must not
// block (the async enqueue fast path) use Get; everyone else uses
// GetOrCompute.
func (c *Cache) Get(key Key) ([]byte, Outcome, bool) {
	c.mu.Lock()
	if el, ok := c.index[key]; ok {
		c.lru.MoveToFront(el)
		body := el.Value.(*memEntry).body
		c.stats.Hits++
		c.mu.Unlock()
		return body, HitMemory, true
	}
	c.mu.Unlock()
	body := c.loadDisk(key)
	if body == nil {
		return nil, Miss, false
	}
	c.mu.Lock()
	c.stats.DiskHits++
	c.insertLocked(key, body)
	c.mu.Unlock()
	return body, HitDisk, true
}

// GetOrCompute returns the cached bytes for key, running compute at
// most once across all concurrent callers when the key is absent.
// The returned Outcome says how the call was served. Compute errors
// propagate to every caller of the flight and are not cached; ctx
// cancellation releases a waiting follower without affecting the
// leader's computation.
func (c *Cache) GetOrCompute(ctx context.Context, key Key, compute func(context.Context) ([]byte, error)) ([]byte, Outcome, error) {
	c.mu.Lock()
	if el, ok := c.index[key]; ok {
		c.lru.MoveToFront(el)
		body := el.Value.(*memEntry).body
		c.stats.Hits++
		c.mu.Unlock()
		return body, HitMemory, nil
	}
	if fl, ok := c.inflight[key]; ok {
		c.stats.Shared++
		c.mu.Unlock()
		select {
		case <-fl.done:
			return fl.body, Shared, fl.err
		case <-ctx.Done():
			return nil, Shared, ctx.Err()
		}
	}
	fl := &flight{done: make(chan struct{})}
	c.inflight[key] = fl
	c.mu.Unlock()

	outcome := Miss
	var err error
	body := c.loadDisk(key)
	if body != nil {
		outcome = HitDisk
	} else {
		body, err = compute(ctx)
	}

	c.mu.Lock()
	delete(c.inflight, key)
	persistNeeded := false
	switch {
	case err != nil:
		// Not cached: a failed computation (bad request reached the
		// engine, deadline, panic isolation) must not poison the key.
	case outcome == HitDisk:
		c.stats.DiskHits++
		c.insertLocked(key, body)
	default:
		c.stats.Misses++
		c.insertLocked(key, body)
		persistNeeded = true
	}
	c.mu.Unlock()

	// Persist outside the LRU lock: the write path consults the
	// degraded state itself, and a failing write demotes the cache
	// rather than slowing every other caller.
	if persistNeeded {
		if werr := c.persist(key, body); werr != nil {
			c.mu.Lock()
			c.stats.WriteErrs++
			c.demoteLocked("put "+key.String(), werr)
			c.mu.Unlock()
		}
	}

	fl.body, fl.err = body, err
	close(fl.done)
	return body, outcome, err
}

// insertLocked adds an entry at the LRU front, evicting from the back
// past capacity. Caller holds c.mu.
func (c *Cache) insertLocked(key Key, body []byte) {
	if el, ok := c.index[key]; ok {
		c.lru.MoveToFront(el)
		return
	}
	c.index[key] = c.lru.PushFront(&memEntry{key: key, body: body})
	c.stats.BytesInMem += int64(len(body))
	for c.lru.Len() > c.capacity {
		back := c.lru.Back()
		ev := back.Value.(*memEntry)
		c.lru.Remove(back)
		delete(c.index, ev.key)
		c.stats.BytesInMem -= int64(len(ev.body))
	}
}

// loadDisk reads and verifies the persisted entry for key; nil means
// miss. A corrupt entry is removed and reported as a miss — recompute,
// never fail. A failing disk (permission loss, IO errors) demotes the
// cache to memory-only, which is also a miss: degraded operation keeps
// serving requests, it just stops consulting the store until a probe
// restores it.
func (c *Cache) loadDisk(key Key) []byte {
	if !c.diskUsable() {
		return nil
	}
	body, ok, err := c.log.Get(key.String())
	switch {
	case err == nil && !ok:
		return nil
	case errors.Is(err, store.ErrCorrupt):
		// Bit rot under a record the index still points at: evict and
		// recompute. The store refuses to serve it, so a half-rotted
		// certificate can never reach a client.
		c.mu.Lock()
		c.stats.Corrupt++
		c.mu.Unlock()
		//lint:ignore droppederr eviction is best-effort: the entry is already being treated as a miss
		c.log.Delete(key.String())
		return nil
	case err != nil:
		c.mu.Lock()
		c.stats.ReadErrs++
		c.demoteLocked("get "+key.String(), err)
		c.mu.Unlock()
		return nil
	}
	return body
}

// persist writes the entry for key. Best-effort: the caller records
// failures in Stats.WriteErrs, demotes the cache, and serves the
// computed bytes anyway. A degraded cache skips the write silently.
func (c *Cache) persist(key Key, body []byte) error {
	if !c.diskUsable() {
		return nil
	}
	return c.log.Put(key.String(), body)
}
