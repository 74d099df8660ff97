package server

// Recovery under imperfect conditions: a previous process may have
// left more checkpoints than the queue holds, or a checkpoint whose
// bytes rotted on disk. Recover must re-enqueue what fits, delete what
// cannot be parsed, and never crash or resurrect a wrong job.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"adaptivertc/internal/api"
	"adaptivertc/internal/certcache"
)

// mkJobCkpt writes a valid job checkpoint for a 1×1 request with the
// given entry into the job log under stateDir/jobs and returns its id.
func mkJobCkpt(t *testing.T, stateDir string, rho float64) string {
	t.Helper()
	id, data := jobCkptFor(t, rho)
	putJobRecord(t, stateDir, id, data)
	return id
}

// jobCkptFor encodes the job checkpoint of a 1×1 request with the given
// entry, byte for byte as putJobCkpt encodes it, and returns its id.
func jobCkptFor(t *testing.T, rho float64) (string, []byte) {
	t.Helper()
	req, err := api.DecodeRequest(strings.NewReader(
		fmt.Sprintf(`{"version":1,"matrices":[[[%g]]]}`, rho)))
	if err != nil {
		t.Fatal(err)
	}
	req.Normalize()
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}
	key := req.Key()
	id := jobID(key)
	return id, jobCkptBytes(t, jobCkpt{ID: id, Key: key, Req: req})
}

func TestRecoverPartiallyFullQueue(t *testing.T) {
	stateDir := t.TempDir()
	rhos := []float64{0.2, 0.3, 0.4}
	ids := make([]string, len(rhos))
	for i, rho := range rhos {
		ids[i] = mkJobCkpt(t, stateDir, rho)
	}

	cache, err := certcache.New(certcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workers: 1, QueueSize: 2, Cache: cache, StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.Recover()
	if n != 2 {
		t.Fatalf("recovered %d jobs, want 2 (queue capacity)", n)
	}
	if err == nil {
		t.Fatal("Recover on an over-full state dir must report the overflow")
	}
	if !strings.Contains(err.Error(), "queue full") {
		t.Fatalf("err = %v, want a queue-full diagnostic", err)
	}

	// Every record survives: the two enqueued ones are removed only on
	// completion, and the overflowed one must stay for the next Recover
	// — dropping it would silently lose a job.
	if keys := s.jobLog.Keys(); len(keys) != 3 {
		t.Fatalf("job log holds %d records after Recover, want 3 (got %v)", len(keys), keys)
	}

	// Drain the two recovered jobs; both certify.
	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, _, done, failed := s.jobs.counts()
		if done+failed >= 2 {
			if failed != 0 {
				t.Fatalf("%d recovered job(s) failed", failed)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("recovered jobs never completed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Completed jobs cleaned their records; the overflowed one remains.
	// Recover walks the log's keys in lexical order, so the overflowed
	// job is the lexically last of the three ids.
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	keys := s.jobLog.Keys()
	if len(keys) != 1 || keys[0] != sorted[2] {
		t.Fatalf("surviving records = %v, want exactly the overflowed job %s", keys, sorted[2])
	}
}

func TestRecoverCorruptCheckpointBody(t *testing.T) {
	stateDir := t.TempDir()
	goodID := mkJobCkpt(t, stateDir, 0.25)
	// Bit rot inside the envelope: the log frame is intact, but the
	// checkpoint's own checksum no longer matches.
	badID, bad := jobCkptFor(t, 0.35)
	bad[len(bad)-1] ^= 0xFF
	putJobRecord(t, stateDir, badID, bad)

	cache, err := certcache.New(certcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workers: 1, Cache: cache, StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.Recover()
	if err != nil {
		t.Fatalf("Recover with one corrupt checkpoint must not fail: %v", err)
	}
	if n != 1 {
		t.Fatalf("recovered %d jobs, want 1 (the intact one)", n)
	}
	// Evict, don't resurrect: the corrupt record is gone from the log,
	// and no job was registered under its id.
	if _, ok, gerr := s.jobLog.Get(badID); gerr != nil || ok {
		t.Fatalf("corrupt checkpoint still in the log (ok=%v, err=%v)", ok, gerr)
	}
	if j := s.jobs.get(badID); j != nil {
		t.Fatalf("corrupt checkpoint produced a job in state %q", j.status().State)
	}
	if j := s.jobs.get(goodID); j == nil {
		t.Fatal("intact checkpoint was not recovered")
	}

	// The request whose checkpoint rotted recomputes from scratch — a
	// fresh POST certifies it; nothing false was served from the ruins.
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	resp, body := postCertify(t, ts, `{"version":1,"matrices":[[[0.35]]]}`)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("recompute after corrupt checkpoint: %d", resp.StatusCode)
	}
	if resp.StatusCode == http.StatusOK && !strings.Contains(string(body), `"verdict":"stable"`) {
		t.Fatalf("recomputed verdict wrong: %s", body)
	}
}
