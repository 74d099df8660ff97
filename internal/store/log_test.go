package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func mustOpen(t *testing.T, dir string, opt Options) *Log {
	t.Helper()
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l
}

func mustPut(t *testing.T, l *Log, key string, value []byte) {
	t.Helper()
	if err := l.Put(key, value); err != nil {
		t.Fatalf("Put(%q): %v", key, err)
	}
}

func mustGet(t *testing.T, l *Log, key string) []byte {
	t.Helper()
	v, ok, err := l.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get(%q) = ok=%v err=%v, want present", key, ok, err)
	}
	return v
}

func mustAbsent(t *testing.T, l *Log, key string) {
	t.Helper()
	if _, ok, err := l.Get(key); ok || err != nil {
		t.Fatalf("Get(%q) = ok=%v err=%v, want absent", key, ok, err)
	}
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir(%s): %v", dir, err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), segSuffix) {
			segs = append(segs, e.Name())
		}
	}
	return segs
}

func TestBasicOpsAndReopen(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{NoAutoCompact: true})
	want := map[string][]byte{}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key-%03d", i)
		val := bytes.Repeat([]byte{byte(i)}, 10+i)
		mustPut(t, l, key, val)
		want[key] = val
	}
	// Overwrite a few, delete a few.
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("key-%03d", i)
		val := []byte(fmt.Sprintf("rewritten-%d", i))
		mustPut(t, l, key, val)
		want[key] = val
	}
	for i := 40; i < 45; i++ {
		key := fmt.Sprintf("key-%03d", i)
		if err := l.Delete(key); err != nil {
			t.Fatalf("Delete(%q): %v", key, err)
		}
		delete(want, key)
	}
	if err := l.Delete("never-existed"); err != nil {
		t.Fatalf("Delete of absent key: %v", err)
	}
	check := func(l *Log) {
		t.Helper()
		if l.Len() != len(want) {
			t.Fatalf("Len = %d, want %d", l.Len(), len(want))
		}
		for key, val := range want {
			if got := mustGet(t, l, key); !bytes.Equal(got, val) {
				t.Fatalf("Get(%q) = %q, want %q", key, got, val)
			}
		}
		keys := l.Keys()
		for i := 1; i < len(keys); i++ {
			if keys[i-1] >= keys[i] {
				t.Fatalf("Keys not sorted: %q >= %q", keys[i-1], keys[i])
			}
		}
	}
	check(l)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := l.Put("after-close", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}

	l2 := mustOpen(t, dir, Options{NoAutoCompact: true})
	defer l2.Close()
	check(l2)
	if torn := l2.Stats().TornBytes; torn != 0 {
		t.Fatalf("clean reopen truncated %d bytes", torn)
	}
}

func TestEmptyAndInvalidKeys(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{NoAutoCompact: true})
	defer l.Close()
	if err := l.Put("", []byte("x")); err == nil {
		t.Fatal("Put with empty key succeeded")
	}
	if err := l.Put(strings.Repeat("k", maxKeyLen+1), nil); err == nil {
		t.Fatal("Put with oversized key succeeded")
	}
	// Empty values are legal: a cached artifact can be zero bytes.
	mustPut(t, l, "empty", nil)
	if got := mustGet(t, l, "empty"); len(got) != 0 {
		t.Fatalf("empty value round-tripped as %q", got)
	}
}

// TestEveryPutAndDeleteSyncsOnce pins "acknowledged means durable":
// each acknowledged Put and Delete issues exactly one fsync, and a
// Delete of an absent key writes nothing and syncs nothing.
func TestEveryPutAndDeleteSyncsOnce(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{NoAutoCompact: true})
	defer l.Close()
	step := func(what string, op func() error, wantSyncs int64) {
		t.Helper()
		before := l.Stats().Syncs
		if err := op(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := l.Stats().Syncs - before; got != wantSyncs {
			t.Fatalf("%s raised Syncs by %d, want %d", what, got, wantSyncs)
		}
	}
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("key-%d", i)
		step("Put "+key, func() error { return l.Put(key, []byte(key)) }, 1)
		step("overwrite "+key, func() error { return l.Put(key, nil) }, 1)
	}
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("key-%d", i)
		step("Delete "+key, func() error { return l.Delete(key) }, 1)
	}
	step("Delete absent", func() error { return l.Delete("key-0") }, 0)
	if st := l.Stats(); st.Rotations != 0 {
		t.Fatalf("%d rotations: their syncs would blur the count", st.Rotations)
	}
}

func TestRotationAndReplayAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentBytes: 256, NoAutoCompact: true})
	want := map[string][]byte{}
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("k%02d", i)
		val := bytes.Repeat([]byte{byte('a' + i%26)}, 32)
		mustPut(t, l, key, val)
		want[key] = val
	}
	st := l.Stats()
	if st.Rotations == 0 || st.Segments < 2 {
		t.Fatalf("expected rotations with 256-byte segments, got %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2 := mustOpen(t, dir, Options{SegmentBytes: 256, NoAutoCompact: true})
	defer l2.Close()
	for key, val := range want {
		if got := mustGet(t, l2, key); !bytes.Equal(got, val) {
			t.Fatalf("Get(%q) after reopen = %q, want %q", key, got, val)
		}
	}
}

func TestDuplicateKeyAcrossSegmentsLastWriteWins(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentBytes: 128, NoAutoCompact: true})
	mustPut(t, l, "dup", []byte("first"))
	// Pad until the log rotates, then overwrite in the newer segment.
	for i := 0; l.Stats().Rotations == 0; i++ {
		mustPut(t, l, fmt.Sprintf("pad%d", i), bytes.Repeat([]byte("p"), 40))
	}
	mustPut(t, l, "dup", []byte("second"))
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n := len(segFiles(t, dir)); n < 2 {
		t.Fatalf("want ≥ 2 segments on disk, got %d", n)
	}
	l2 := mustOpen(t, dir, Options{SegmentBytes: 128, NoAutoCompact: true})
	defer l2.Close()
	if got := mustGet(t, l2, "dup"); string(got) != "second" {
		t.Fatalf("Get(dup) = %q, want the later write", got)
	}
}

func TestShortWriteMarksDirtyAndRepairs(t *testing.T) {
	dir := t.TempDir()
	fs := &hookFS{}
	l := mustOpen(t, dir, Options{FS: fs, NoAutoCompact: true})
	defer l.Close()
	mustPut(t, l, "good", []byte("payload"))

	fs.onWrite = func(p []byte) (int, error) { return len(p) / 2, errHook }
	if err := l.Put("torn", []byte("never-acked")); err == nil {
		t.Fatal("Put through failing write succeeded")
	}
	fs.onWrite = nil
	mustAbsent(t, l, "torn")

	// The next append must truncate the torn bytes before writing, or
	// this record would sit unreachable behind garbage.
	mustPut(t, l, "after", []byte("recovered"))
	if got := mustGet(t, l, "after"); string(got) != "recovered" {
		t.Fatalf("Get(after) = %q", got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2 := mustOpen(t, dir, Options{NoAutoCompact: true})
	defer l2.Close()
	if got := mustGet(t, l2, "good"); string(got) != "payload" {
		t.Fatalf("Get(good) after reopen = %q", got)
	}
	if got := mustGet(t, l2, "after"); string(got) != "recovered" {
		t.Fatalf("Get(after) after reopen = %q", got)
	}
	mustAbsent(t, l2, "torn")
	if torn := l2.Stats().TornBytes; torn != 0 {
		t.Fatalf("repair left %d torn bytes for reopen to find", torn)
	}
}

func TestSyncFailureMeansMaybePersisted(t *testing.T) {
	dir := t.TempDir()
	fs := &hookFS{}
	l := mustOpen(t, dir, Options{FS: fs, NoAutoCompact: true})
	fs.onSync = func() error { return errHook }
	err := l.Put("unacked", []byte("v"))
	if err == nil || !errors.Is(err, errHook) {
		t.Fatalf("Put with failing sync = %v, want injected fault", err)
	}
	fs.onSync = nil
	// The write itself completed, so after a clean reopen the record is
	// allowed to be present — errored Put promises may-or-may-not, and
	// here the bytes did reach the file.
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2 := mustOpen(t, dir, Options{NoAutoCompact: true})
	defer l2.Close()
	if got := mustGet(t, l2, "unacked"); string(got) != "v" {
		t.Fatalf("Get(unacked) = %q", got)
	}
}

func TestCompactionReclaimsAndPreservesBytes(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentBytes: 512, NoAutoCompact: true})
	want := map[string][]byte{}
	for round := 0; round < 6; round++ {
		for i := 0; i < 12; i++ {
			key := fmt.Sprintf("k%02d", i)
			val := []byte(fmt.Sprintf("round-%d-key-%02d-%s", round, i, strings.Repeat("x", 40)))
			mustPut(t, l, key, val)
			want[key] = val
		}
	}
	if err := l.Delete("k11"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	delete(want, "k11")
	before := l.Stats()
	if before.Segments < 3 {
		t.Fatalf("test needs several sealed segments, got %d", before.Segments)
	}
	if err := l.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after := l.Stats()
	if after.Compactions != 1 {
		t.Fatalf("Compactions = %d, want 1", after.Compactions)
	}
	if after.Segments >= before.Segments {
		t.Fatalf("compaction did not reduce segments: %d -> %d", before.Segments, after.Segments)
	}
	if after.TotalBytes >= before.TotalBytes {
		t.Fatalf("compaction did not reclaim bytes: %d -> %d", before.TotalBytes, after.TotalBytes)
	}
	for key, val := range want {
		if got := mustGet(t, l, key); !bytes.Equal(got, val) {
			t.Fatalf("Get(%q) after compaction = %q, want %q", key, got, val)
		}
	}
	mustAbsent(t, l, "k11")
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2 := mustOpen(t, dir, Options{NoAutoCompact: true})
	defer l2.Close()
	for key, val := range want {
		if got := mustGet(t, l2, key); !bytes.Equal(got, val) {
			t.Fatalf("Get(%q) after compaction+reopen = %q, want %q", key, got, val)
		}
	}
	mustAbsent(t, l2, "k11")
}

func TestAutoCompactionTriggers(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentBytes: 512, CompactMinBytes: 1, CompactFraction: 0.3})
	defer l.Close()
	for round := 0; round < 10; round++ {
		for i := 0; i < 8; i++ {
			mustPut(t, l, fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte(round)}, 64))
		}
	}
	l.compactWG.Wait()
	if st := l.Stats(); st.Compactions == 0 {
		t.Fatalf("auto compaction never ran: %+v", st)
	}
	for i := 0; i < 8; i++ {
		if got := mustGet(t, l, fmt.Sprintf("k%d", i)); !bytes.Equal(got, bytes.Repeat([]byte{9}, 64)) {
			t.Fatalf("k%d lost its last write after auto compaction", i)
		}
	}
}

func TestCompactionFailureDegradesNotDead(t *testing.T) {
	dir := t.TempDir()
	fs := &hookFS{}
	l := mustOpen(t, dir, Options{FS: fs, SegmentBytes: 256, NoAutoCompact: true})
	defer l.Close()
	for round := 0; round < 4; round++ {
		for i := 0; i < 8; i++ {
			mustPut(t, l, fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte(round)}, 32))
		}
	}
	fs.onRename = func(_, _ string) error { return errHook }
	if err := l.Compact(); err == nil {
		t.Fatal("Compact with failing rename succeeded")
	}
	st := l.Stats()
	if !st.CompactionDegraded || st.CompactionErrs != 1 || st.CompactionReason == "" {
		t.Fatalf("degraded state not recorded: %+v", st)
	}
	// Appends must keep working while compaction is degraded.
	mustPut(t, l, "while-degraded", []byte("still-writable"))
	if got := mustGet(t, l, "while-degraded"); string(got) != "still-writable" {
		t.Fatalf("append while degraded = %q", got)
	}
	// Heal; an explicit retry succeeds and clears the condition.
	fs.onRename = nil
	if err := l.Compact(); err != nil {
		t.Fatalf("Compact after heal: %v", err)
	}
	st = l.Stats()
	if st.CompactionDegraded || st.CompactionReason != "" {
		t.Fatalf("degraded state not cleared: %+v", st)
	}
	if got := mustGet(t, l, "while-degraded"); string(got) != "still-writable" {
		t.Fatalf("record written while degraded lost by recovery compaction: %q", got)
	}
}

func TestCompactionBackoffGatesRetries(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	l := &Log{opt: Options{Now: func() time.Time { return now }}}
	l.finishCompact(errHook)
	if l.compactBackoff != compactBackoffInitial {
		t.Fatalf("first failure backoff = %v, want %v", l.compactBackoff, compactBackoffInitial)
	}
	if got := l.compactNotBefore; !got.Equal(now.Add(compactBackoffInitial)) {
		t.Fatalf("compactNotBefore = %v", got)
	}
	for i := 0; i < 20; i++ {
		l.finishCompact(errHook)
	}
	if l.compactBackoff != compactBackoffMax {
		t.Fatalf("backoff did not cap: %v", l.compactBackoff)
	}
	if !l.stats.CompactionDegraded || l.stats.CompactionErrs != 21 {
		t.Fatalf("stats after repeated failures: %+v", l.stats)
	}
	l.finishCompact(nil)
	if l.stats.CompactionDegraded || l.compactBackoff != 0 {
		t.Fatalf("success did not clear degraded state")
	}
}

func TestReopenCleansCompactionLeftovers(t *testing.T) {
	// Simulate a crash after the compacted segment was published but
	// before the superseded originals were removed: compaction runs with
	// removals failing, leaving stale .seg files for the next open.
	dir := t.TempDir()
	fs := &hookFS{}
	l := mustOpen(t, dir, Options{FS: fs, SegmentBytes: 256, NoAutoCompact: true})
	want := map[string][]byte{}
	for round := 0; round < 4; round++ {
		for i := 0; i < 8; i++ {
			key := fmt.Sprintf("k%d", i)
			val := bytes.Repeat([]byte{byte('A' + round)}, 48)
			mustPut(t, l, key, val)
			want[key] = val
		}
	}
	fs.onRemove = func(path string) error {
		if strings.HasSuffix(path, segSuffix) {
			return errHook
		}
		return nil
	}
	segsBefore := len(segFiles(t, dir))
	if err := l.Compact(); err != nil {
		t.Fatalf("Compact (removal failures are tolerable): %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n := len(segFiles(t, dir)); n != segsBefore {
		t.Fatalf("expected stale segments to linger (got %d, had %d)", n, segsBefore)
	}
	l2 := mustOpen(t, dir, Options{NoAutoCompact: true})
	defer l2.Close()
	for key, val := range want {
		if got := mustGet(t, l2, key); !bytes.Equal(got, val) {
			t.Fatalf("Get(%q) after leftover cleanup = %q, want %q", key, got, val)
		}
	}
	// The covers rule must have deleted every superseded file.
	for _, name := range segFiles(t, dir) {
		seq, ok := segSeqFromName(name)
		if !ok {
			t.Fatalf("foreign file %q", name)
		}
		for _, s := range l2.segs {
			if s.seq != seq && s.seq <= seq && s.covers >= seq {
				t.Fatalf("superseded segment %q survived reopen", name)
			}
		}
	}
}

func TestCompactionTempIgnoredOnOpen(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{NoAutoCompact: true})
	mustPut(t, l, "k", []byte("v"))
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// A crashed compaction leaves an unpublished temporary.
	tmp := filepath.Join(dir, "0000000000000001"+tmpSuffix)
	if err := os.WriteFile(tmp, []byte("half-written garbage"), 0o644); err != nil {
		t.Fatalf("planting temp: %v", err)
	}
	l2 := mustOpen(t, dir, Options{NoAutoCompact: true})
	defer l2.Close()
	if got := mustGet(t, l2, "k"); string(got) != "v" {
		t.Fatalf("Get(k) = %q", got)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("compaction temp not cleaned: %v", err)
	}
}
