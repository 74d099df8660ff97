package certcache

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptivertc/internal/chaos"
	"adaptivertc/internal/store"
)

func keyOf(s string) Key { return sha256.Sum256([]byte(s)) }

// inflightLen reads the in-flight count under the cache lock (the
// tests poll it to sequence leader/follower goroutines).
func (c *Cache) inflightLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.inflight)
}

func mustNew(t *testing.T, opt Options) *Cache {
	t.Helper()
	c, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// newestSegment returns the path of the highest-sequence segment file
// in a cache directory — where the most recent record's frame lives.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var newest string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") {
			newest = filepath.Join(dir, e.Name())
		}
	}
	if newest == "" {
		t.Fatal("no segment files in cache dir")
	}
	return newest
}

// The central concurrency contract: N concurrent identical requests
// run exactly one computation and all receive the same bytes. Run
// under -race this also exercises the flight happens-before edge.
func TestSingleflightOneComputation(t *testing.T) {
	c := mustNew(t, Options{})
	key := keyOf("dedup")
	const n = 32
	var calls atomic.Int64
	release := make(chan struct{})

	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _, err := c.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) {
				calls.Add(1)
				<-release // hold the flight open until all followers have queued
				return []byte("certified"), nil
			})
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
			}
			bodies[i] = body
		}(i)
	}
	// Let the leader win and the followers pile onto the flight, then
	// release. The leader holds the flight open, so every other
	// goroutine must eventually register as Shared.
	for c.Stats().Shared < n-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want exactly 1", got)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Shared != n-1 {
		t.Fatalf("stats = %+v, want Misses=1 Shared=%d", st, n-1)
	}
	for i, b := range bodies {
		if !bytes.Equal(b, bodies[0]) {
			t.Fatalf("goroutine %d got %q, goroutine 0 got %q — bodies must be byte-identical", i, b, bodies[0])
		}
	}

	// A later call is a pure memory hit.
	body, outcome, err := c.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) {
		t.Fatal("compute must not run on a hit")
		return nil, nil
	})
	if err != nil || outcome != HitMemory || string(body) != "certified" {
		t.Fatalf("hit: body=%q outcome=%v err=%v", body, outcome, err)
	}
}

// Errors propagate to every waiter and are not cached.
func TestComputeErrorNotCached(t *testing.T) {
	c := mustNew(t, Options{})
	key := keyOf("fails-once")
	boom := errors.New("boom")
	var calls atomic.Int64

	if _, _, err := c.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) {
		calls.Add(1)
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	body, outcome, err := c.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) {
		calls.Add(1)
		return []byte("ok"), nil
	})
	if err != nil || outcome != Miss || string(body) != "ok" {
		t.Fatalf("retry: body=%q outcome=%v err=%v", body, outcome, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("compute ran %d times, want 2 (error must not be cached)", calls.Load())
	}
}

// A waiting follower can abandon the flight via its own context
// without disturbing the leader.
func TestFollowerContextCancel(t *testing.T) {
	c := mustNew(t, Options{})
	key := keyOf("slow")
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, _, err := c.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) {
			<-release
			return []byte("eventually"), nil
		})
		if err != nil {
			t.Errorf("leader: %v", err)
		}
	}()
	for c.inflightLen() == 0 {
		runtime.Gosched()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.GetOrCompute(ctx, key, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("follower err = %v, want context.Canceled", err)
	}
	close(release)
	<-leaderDone
}

func TestLRUEviction(t *testing.T) {
	c := mustNew(t, Options{Capacity: 2})
	compute := func(s string) func(context.Context) ([]byte, error) {
		return func(context.Context) ([]byte, error) { return []byte(s), nil }
	}
	ctx := context.Background()
	c.GetOrCompute(ctx, keyOf("a"), compute("a"))
	c.GetOrCompute(ctx, keyOf("b"), compute("b"))
	c.GetOrCompute(ctx, keyOf("a"), compute("a"))  // touch a: b is now LRU
	c.GetOrCompute(ctx, keyOf("cc"), compute("c")) // evicts b

	if st := c.Stats(); st.Entries != 2 || st.BytesInMem != 2 {
		t.Fatalf("stats = %+v, want 2 entries / 2 bytes", st)
	}
	if _, outcome, _ := c.GetOrCompute(ctx, keyOf("a"), compute("a")); outcome != HitMemory {
		t.Fatalf("a evicted, want retained (outcome %v)", outcome)
	}
	if _, outcome, _ := c.GetOrCompute(ctx, keyOf("b"), compute("b")); outcome != Miss {
		t.Fatalf("b retained, want evicted (outcome %v)", outcome)
	}
}

// Disk persistence: a second cache over the same directory serves the
// first cache's entry without recomputing, byte-identically.
func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	key := keyOf("persist")
	ctx := context.Background()

	c1 := mustNew(t, Options{Dir: dir})
	if _, outcome, err := c1.GetOrCompute(ctx, key, func(context.Context) ([]byte, error) {
		return []byte("stored"), nil
	}); err != nil || outcome != Miss {
		t.Fatalf("first: outcome=%v err=%v", outcome, err)
	}
	if err := c1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	c2 := mustNew(t, Options{Dir: dir})
	body, outcome, err := c2.GetOrCompute(ctx, key, func(context.Context) ([]byte, error) {
		t.Fatal("compute must not run: entry is on disk")
		return nil, nil
	})
	if err != nil || outcome != HitDisk || string(body) != "stored" {
		t.Fatalf("restart: body=%q outcome=%v err=%v", body, outcome, err)
	}
	if st := c2.Stats(); st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want DiskHits=1 Misses=0", st)
	}
	// Promoted: a third call is a memory hit.
	if _, outcome, _ := c2.GetOrCompute(ctx, key, nil); outcome != HitMemory {
		t.Fatalf("promotion failed: outcome %v", outcome)
	}
}

// Bit rot under a live record is evicted and recomputed — never an
// error, and never a demotion (it is a per-entry event, not a disk
// fault).
func TestCorruptDiskEntryRecomputed(t *testing.T) {
	dir := t.TempDir()
	key := keyOf("corrupt-me")
	ctx := context.Background()

	// Capacity 1 so a second entry evicts the first from memory,
	// forcing the next Get back to the store.
	c := mustNew(t, Options{Dir: dir, Capacity: 1})
	if _, _, err := c.GetOrCompute(ctx, key, func(context.Context) ([]byte, error) {
		return []byte("original"), nil
	}); err != nil {
		t.Fatal(err)
	}
	// Rot the freshest frame in place — the record just persisted.
	seg := newestSegment(t, dir)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.GetOrCompute(ctx, keyOf("evictor"), func(context.Context) ([]byte, error) {
		return []byte("x"), nil
	}); err != nil {
		t.Fatal(err)
	}

	var calls atomic.Int64
	body, outcome, err := c.GetOrCompute(ctx, key, func(context.Context) ([]byte, error) {
		calls.Add(1)
		return []byte("recomputed"), nil
	})
	if err != nil || outcome != Miss || string(body) != "recomputed" || calls.Load() != 1 {
		t.Fatalf("corrupt path: body=%q outcome=%v err=%v calls=%d", body, outcome, err, calls.Load())
	}
	st := c.Stats()
	if st.Corrupt != 1 {
		t.Fatalf("stats = %+v, want Corrupt=1", st)
	}
	if st.Degraded {
		t.Fatalf("per-entry corruption demoted the cache: %+v", st)
	}
	// The rewritten entry serves again from disk after a memory evict.
	if _, _, err := c.GetOrCompute(ctx, keyOf("evictor-2"), func(context.Context) ([]byte, error) {
		return []byte("y"), nil
	}); err != nil {
		t.Fatal(err)
	}
	body, outcome, err = c.GetOrCompute(ctx, key, nil)
	if err != nil || outcome != HitDisk || string(body) != "recomputed" {
		t.Fatalf("after repair: body=%q outcome=%v err=%v", body, outcome, err)
	}
}

// Hammering many goroutines over a small key space under -race.
func TestConcurrentMixedKeys(t *testing.T) {
	c := mustNew(t, Options{Capacity: 4, Dir: t.TempDir()})
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := fmt.Sprintf("key-%d", (g+i)%8)
				body, _, err := c.GetOrCompute(ctx, keyOf(k), func(context.Context) ([]byte, error) {
					return []byte(k), nil
				})
				if err != nil {
					t.Errorf("%s: %v", k, err)
					return
				}
				if string(body) != k {
					t.Errorf("key %s got body %q", k, body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// --- degraded-mode (faulty disk) behaviour ---

func computeBody(s string) func(context.Context) ([]byte, error) {
	return func(context.Context) ([]byte, error) { return []byte(s), nil }
}

// A failing write demotes the cache to memory-only instead of failing
// the request: the computed bytes are served and cached in memory, the
// health flag flips, and later operations skip the disk entirely.
func TestWriteFaultDemotesToMemoryOnly(t *testing.T) {
	ffs := chaos.NewFaultyFS(nil)
	c := mustNew(t, Options{Dir: t.TempDir(), FS: ffs})
	ffs.BreakWrites(nil)

	body, outcome, err := c.GetOrCompute(context.Background(), keyOf("a"), computeBody("body-a"))
	if err != nil || outcome != Miss || string(body) != "body-a" {
		t.Fatalf("GetOrCompute under write fault = (%q, %v, %v), want served miss", body, outcome, err)
	}
	st := c.Stats()
	if !st.Degraded || st.Demotions != 1 || st.WriteErrs != 1 {
		t.Fatalf("stats after write fault: %+v, want degraded with one demotion and one write error", st)
	}
	if st.DegradedReason == "" {
		t.Fatal("degraded cache carries no reason")
	}
	// Memory still serves.
	if _, outcome, ok := c.Get(keyOf("a")); !ok || outcome != HitMemory {
		t.Fatalf("memory hit after demotion: ok=%v outcome=%v", ok, outcome)
	}
	// Subsequent computations succeed without re-counting write errors
	// (degraded mode skips the disk, it does not keep failing).
	if _, _, err := c.GetOrCompute(context.Background(), keyOf("b"), computeBody("body-b")); err != nil {
		t.Fatalf("second compute while degraded: %v", err)
	}
	if st := c.Stats(); st.WriteErrs != 1 || st.Demotions != 1 {
		t.Fatalf("degraded cache kept touching the disk: %+v", st)
	}
}

// A failing read is a cache miss plus a demotion, never a request
// failure: the entry is recomputed and served.
func TestReadFaultDemotesAndRecomputes(t *testing.T) {
	dir := t.TempDir()
	healthy := mustNew(t, Options{Dir: dir})
	if _, _, err := healthy.GetOrCompute(context.Background(), keyOf("k"), computeBody("v")); err != nil {
		t.Fatal(err)
	}
	if err := healthy.Close(); err != nil {
		t.Fatal(err)
	}

	ffs := chaos.NewFaultyFS(nil)
	c := mustNew(t, Options{Dir: dir, FS: ffs})
	ffs.BreakReads(nil)
	body, outcome, err := c.GetOrCompute(context.Background(), keyOf("k"), computeBody("v"))
	if err != nil || outcome != Miss || string(body) != "v" {
		t.Fatalf("GetOrCompute under read fault = (%q, %v, %v), want recomputed miss", body, outcome, err)
	}
	st := c.Stats()
	if !st.Degraded || st.ReadErrs != 1 || st.Demotions != 1 {
		t.Fatalf("stats after read fault: %+v", st)
	}
}

// Once the disk heals, the next probe after the probe interval
// restores persistence: the health flag clears and entries flow to
// disk again. The probe's append also repairs any torn tail the
// original fault left behind.
func TestProbeRecoversHealedDisk(t *testing.T) {
	dir := t.TempDir()
	ffs := chaos.NewFaultyFS(nil)
	c := mustNew(t, Options{Dir: dir, FS: ffs, ProbeInterval: time.Minute})
	clock := time.Unix(1_000_000, 0)
	c.now = func() time.Time { return clock }

	ffs.BreakWrites(nil)
	if _, _, err := c.GetOrCompute(context.Background(), keyOf("a"), computeBody("va")); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); !st.Degraded {
		t.Fatalf("not degraded after write fault: %+v", st)
	}

	// Disk heals, but the probe interval has not elapsed: still
	// memory-only.
	ffs.Heal()
	if _, _, err := c.GetOrCompute(context.Background(), keyOf("b"), computeBody("vb")); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); !st.Degraded {
		t.Fatalf("probed before the interval elapsed: %+v", st)
	}

	// Past the interval the next operation probes and recovers.
	clock = clock.Add(2 * time.Minute)
	if _, _, err := c.GetOrCompute(context.Background(), keyOf("c"), computeBody("vc")); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Degraded || st.Recoveries != 1 {
		t.Fatalf("stats after heal + probe: %+v, want recovered", st)
	}
	if reason := st.DegradedReason; reason != "" {
		t.Fatalf("recovered cache still carries reason %q", reason)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// The post-recovery entry is actually on disk: a fresh cache over
	// the same directory serves it without computing.
	fresh := mustNew(t, Options{Dir: dir})
	if _, outcome, ok := fresh.Get(keyOf("c")); !ok || outcome != HitDisk {
		t.Fatalf("post-recovery entry not persisted: ok=%v outcome=%v", ok, outcome)
	}
	// The probe record itself must not leak into the store.
	if _, _, ok := fresh.Get(Key{}); ok {
		t.Fatal("unexpected zero-key entry")
	}
	// Only "c" ever persisted ("a" hit the write fault, "b" was computed
	// while degraded), and the probe record must not have leaked.
	if keys := fresh.log.Keys(); len(keys) != 1 || keys[0] != keyOf("c").String() {
		t.Fatalf("store keys after probe = %v, want only %q", keys, keyOf("c").String())
	}
}

// A probe against a still-broken disk fails closed: the cache stays
// degraded and does not flap.
func TestProbeFailsWhileDiskStillBroken(t *testing.T) {
	ffs := chaos.NewFaultyFS(nil)
	c := mustNew(t, Options{Dir: t.TempDir(), FS: ffs, ProbeInterval: time.Minute})
	clock := time.Unix(1_000_000, 0)
	c.now = func() time.Time { return clock }

	ffs.BreakReads(nil)
	ffs.BreakWrites(nil)
	if _, _, err := c.GetOrCompute(context.Background(), keyOf("a"), computeBody("va")); err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(2 * time.Minute)
	if _, _, err := c.GetOrCompute(context.Background(), keyOf("b"), computeBody("vb")); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if !st.Degraded || st.Recoveries != 0 {
		t.Fatalf("stats after failed probe: %+v, want still degraded", st)
	}
}

// StoreStats surfaces the persistent layer's health; memory-only
// caches report the zero value.
func TestStoreStatsSurface(t *testing.T) {
	mem := mustNew(t, Options{})
	if st := mem.StoreStats(); st != (store.Stats{}) {
		t.Fatalf("memory-only StoreStats = %+v, want zero", st)
	}
	c := mustNew(t, Options{Dir: t.TempDir()})
	if _, _, err := c.GetOrCompute(context.Background(), keyOf("a"), computeBody("va")); err != nil {
		t.Fatal(err)
	}
	st := c.StoreStats()
	if st.Appends != 1 || st.Syncs == 0 || st.Records != 1 {
		t.Fatalf("StoreStats = %+v, want one acknowledged append", st)
	}
}
