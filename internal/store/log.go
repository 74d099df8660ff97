// Package store is a crash-safe, stdlib-only key→bytes store built on
// an append-only segmented log. It replaces the one-file-per-entry
// layouts the certificate cache and job checkpoints started with: at
// millions of cached certificates a file per entry is a filesystem
// DoS, and a crash mid-write can only be detected per file, never
// repaired as a unit.
//
// Design, in one paragraph: records (puts and tombstones) are appended
// to the active segment as length+CRC32C-framed blobs and fsynced
// before Put returns — a record is *acknowledged* only once its bytes
// are durable. When the active segment passes the size threshold the
// log rotates: the old segment is sealed (fsynced, closed, immutable
// forever after) and a fresh one begins. Startup rebuilds the
// in-memory key→(segment, offset) index by replaying every segment in
// sequence order; a torn tail on the final segment — the only place an
// honest crash can leave one — is truncated away, while corruption
// anywhere else refuses to open (acknowledged data rotted; that is an
// operator problem, not something to paper over). Background
// compaction rewrites the live records of all sealed segments into one
// new segment and publishes it with a single atomic rename; a crash at
// any instruction before the rename leaves the old segments
// authoritative, and a crash after it leaves stale segments that the
// next open provably identifies (via the covers field in each
// segment's header) and deletes. Compaction failure degrades the store
// — appends keep working, health reports the condition, and retries
// back off exponentially — it never takes writes down with it.
package store

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrCorrupt is wrapped by Get when a record's stored bytes fail their
// checksum, and by Open when a non-final segment does not replay. For
// Get, callers should treat it as "this key is damaged": delete and
// recompute.
var ErrCorrupt = errors.New("store: corrupt record")

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("store: closed")

// Stats is a snapshot of the log's counters and health.
type Stats struct {
	Appends        int64 // put/tombstone frames written
	AppendBytes    int64 // bytes appended (incl. framing)
	Syncs          int64 // fsyncs issued on segment files
	Reads          int64 // Get calls served from disk
	Compactions    int64 // completed compactions
	CompactionErrs int64 // failed compaction attempts
	Rotations      int64 // segment rotations
	TornBytes      int64 // bytes truncated from a torn tail at open

	Segments   int   // current segment files
	Records    int   // live keys
	LiveBytes  int64 // bytes of frames the index references
	TotalBytes int64 // bytes across all segments

	// CompactionDegraded is true while compaction is failing;
	// appends still work, retries back off, and the reason names the
	// last error. This must surface as degraded-not-dead in /healthz.
	CompactionDegraded bool
	CompactionReason   string
}

// Options configures Open.
type Options struct {
	// FS is the filesystem seam; nil selects OSFS. The chaos harness
	// substitutes a crash-injecting FS.
	FS FS
	// SegmentBytes is the rotation threshold; ≤ 0 selects 64 MiB.
	SegmentBytes int64
	// CompactFraction is the dead/total ratio among sealed segments
	// that triggers compaction; ≤ 0 selects 0.5.
	CompactFraction float64
	// CompactMinBytes is the minimum dead bytes before compaction is
	// worth the rewrite; ≤ 0 selects 1 MiB.
	CompactMinBytes int64
	// NoAutoCompact disables the background compactor; tests drive
	// Compact explicitly.
	NoAutoCompact bool
	// Now is the clock used for compaction backoff; nil selects
	// time.Now.
	Now func() time.Time
}

const (
	defaultSegmentBytes    = 64 << 20
	defaultCompactFraction = 0.5
	defaultCompactMinBytes = 1 << 20
	compactBackoffInitial  = time.Second
	compactBackoffMax      = 5 * time.Minute
	segSuffix              = ".seg"
	tmpSuffix              = ".cmp"
)

// segment is one on-disk log file.
type segment struct {
	seq    uint64
	covers uint64
	path   string
	size   int64 // logical size: bytes of complete frames
	live   int64 // bytes of frames the index currently references
}

// loc addresses one live record.
type loc struct {
	seg *segment
	off int64 // frame start
	n   int64 // payload length
}

func (l loc) frameLen() int64 { return frameHeaderSize + l.n }

// Log is the append-only segmented key→bytes store.
type Log struct {
	dir string
	opt Options
	fs  FS

	mu     sync.Mutex
	segs   []*segment // ascending seq; last is active
	active File
	index  map[string]loc
	stats  Stats
	dirty  bool // active tail holds an incomplete frame; repair before next append
	closed bool

	compacting       bool
	compactWG        sync.WaitGroup
	compactNotBefore time.Time
	compactBackoff   time.Duration
}

// segName renders the canonical file name for a sequence number.
func segName(seq uint64) string { return fmt.Sprintf("%016x%s", seq, segSuffix) }

// segSeqFromName parses the sequence number out of a segment file
// name; ok is false for foreign files.
func segSeqFromName(name string) (uint64, bool) {
	if !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	base := strings.TrimSuffix(name, segSuffix)
	if len(base) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(base, 16, 64)
	return seq, err == nil && seq != 0
}

// Open opens (or creates) the log rooted at dir, rebuilding the index
// by replaying every segment and repairing a torn tail on the final
// one. Files in dir that are not segments are ignored, except leftover
// compaction temporaries, which are deleted.
func Open(dir string, opt Options) (*Log, error) {
	if opt.FS == nil {
		opt.FS = OSFS{}
	}
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = defaultSegmentBytes
	}
	if opt.CompactFraction <= 0 {
		opt.CompactFraction = defaultCompactFraction
	}
	if opt.CompactMinBytes <= 0 {
		opt.CompactMinBytes = defaultCompactMinBytes
	}
	if opt.Now == nil {
		opt.Now = time.Now
	}
	l := &Log{dir: dir, opt: opt, fs: opt.FS, index: make(map[string]loc)}
	if err := l.fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	if err := l.load(); err != nil {
		return nil, err
	}
	return l, nil
}

// load scans dir, drops obsolete and temporary files, replays the
// surviving segments in sequence order, and opens the active segment.
func (l *Log) load() error {
	names, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("store: scanning %s: %w", l.dir, err)
	}
	type rawSeg struct {
		name string
		seq  uint64 // from the file name
	}
	var raws []rawSeg
	for _, name := range names {
		if strings.HasSuffix(name, tmpSuffix) {
			// A compaction temporary is never authoritative: the rename
			// that would have published it did not happen.
			//lint:ignore droppederr best-effort cleanup of an unpublished temporary; a lingering one is re-deleted next open
			l.fs.Remove(filepath.Join(l.dir, name))
			continue
		}
		if seq, ok := segSeqFromName(name); ok {
			raws = append(raws, rawSeg{name: name, seq: seq})
		}
	}
	sort.Slice(raws, func(i, j int) bool { return raws[i].seq < raws[j].seq })

	// Read headers. A segment whose meta frame does not parse is
	// tolerable only as the newest file — rotation crashed between
	// creating the file and making its header durable — in which case
	// the empty shell is deleted and the previous segment resumes as
	// active. Anywhere else it is corruption of acknowledged data.
	type loaded struct {
		seg  *segment
		data []byte
	}
	var segsData []loaded
	for i, r := range raws {
		path := filepath.Join(l.dir, r.name)
		data, rerr := l.fs.ReadFile(path)
		var seq, covers uint64
		var merr error
		if rerr == nil {
			var payload []byte
			var n int64
			payload, n, merr = parseFrame(data)
			if merr == nil {
				seq, covers, merr = parseMeta(payload)
				_ = n
			}
		} else {
			merr = rerr
		}
		if merr != nil {
			if i == len(raws)-1 {
				l.stats.TornBytes += int64(len(data))
				if err := l.fs.Remove(path); err != nil {
					return fmt.Errorf("store: removing headerless segment %s: %w", path, err)
				}
				continue
			}
			return fmt.Errorf("%w: segment %s has no valid header: %v", ErrCorrupt, path, merr)
		}
		if seq != r.seq {
			return fmt.Errorf("%w: segment %s header claims seq %d", ErrCorrupt, path, seq)
		}
		segsData = append(segsData, loaded{seg: &segment{seq: seq, covers: covers, path: path}, data: data})
	}

	// Drop segments superseded by a compacted one: S is obsolete when
	// another segment T with T.seq ≤ S.seq covers through S.seq. (The
	// compacted segment atomically replaced the file of the first
	// segment it merged; a crash between that rename and the removal
	// of the rest leaves exactly this signature.)
	kept := segsData[:0]
	for i, s := range segsData {
		obsolete := false
		for j, t := range segsData {
			if i != j && t.seg.seq <= s.seg.seq && t.seg.covers >= s.seg.seq {
				obsolete = true
				break
			}
		}
		if obsolete {
			if err := l.fs.Remove(s.seg.path); err != nil {
				return fmt.Errorf("store: removing superseded segment %s: %w", s.seg.path, err)
			}
			continue
		}
		kept = append(kept, s)
	}
	segsData = kept

	// Replay in sequence order; later records win.
	for i, s := range segsData {
		final := i == len(segsData)-1
		if err := l.replaySegment(s.seg, s.data, final); err != nil {
			return err
		}
		l.segs = append(l.segs, s.seg)
	}

	// Open (or create) the active segment.
	if len(l.segs) == 0 {
		return l.createSegmentLocked(1)
	}
	act := l.segs[len(l.segs)-1]
	f, size, err := l.fs.OpenAppend(act.path)
	if err != nil {
		return fmt.Errorf("store: opening active segment %s: %w", act.path, err)
	}
	if size != act.size {
		//lint:ignore droppederr error path: the corrupt-size diagnostic is the answer; a close failure adds nothing
		f.Close()
		return fmt.Errorf("%w: active segment %s is %d bytes after truncating to %d", ErrCorrupt, act.path, size, act.size)
	}
	l.active = f
	return nil
}

// replaySegment indexes every frame of one segment. On the final
// segment a torn tail is truncated away; anywhere else it is an error.
func (l *Log) replaySegment(seg *segment, data []byte, final bool) error {
	off := int64(0)
	// Leading meta frame was already parsed by load.
	_, n, err := parseFrame(data)
	if err != nil {
		return fmt.Errorf("%w: segment %s: unreadable header on replay", ErrCorrupt, seg.path)
	}
	off += n
	for off < int64(len(data)) {
		payload, n, err := parseFrame(data[off:])
		var rec record
		if err == nil {
			rec, err = parseRecord(payload)
		}
		if err != nil {
			if !final {
				return fmt.Errorf("%w: segment %s: bad frame at offset %d", ErrCorrupt, seg.path, off)
			}
			// Torn tail: everything from off on is a crashed append that
			// was never acknowledged. Cut it.
			torn := int64(len(data)) - off
			if terr := l.fs.Truncate(seg.path, off); terr != nil {
				return fmt.Errorf("store: truncating torn tail of %s at %d: %w", seg.path, off, terr)
			}
			l.stats.TornBytes += torn
			break
		}
		l.applyLocked(rec, loc{seg: seg, off: off, n: int64(len(payload))})
		off += n
	}
	seg.size = off
	return nil
}

// applyLocked applies one replayed or freshly appended record to the
// index, maintaining per-segment live-byte accounting.
func (l *Log) applyLocked(rec record, at loc) {
	if old, ok := l.index[rec.key]; ok {
		old.seg.live -= old.frameLen()
	}
	switch rec.op {
	case opPut:
		l.index[rec.key] = at
		at.seg.live += at.frameLen()
	case opDelete:
		delete(l.index, rec.key)
	}
}

// createSegmentLocked creates segment seq, writes and syncs its
// header, makes its directory entry durable, and installs it as the
// active segment. The caller holds l.mu (or is inside Open).
func (l *Log) createSegmentLocked(seq uint64) error {
	if err := l.fs.MkdirAll(l.dir); err != nil {
		return fmt.Errorf("store: creating %s: %w", l.dir, err)
	}
	path := filepath.Join(l.dir, segName(seq))
	f, size, err := l.fs.OpenAppend(path)
	if err != nil {
		return fmt.Errorf("store: creating segment %s: %w", path, err)
	}
	if size != 0 {
		//lint:ignore droppederr error path: the corrupt-segment diagnostic is the answer; a close failure adds nothing
		f.Close()
		return fmt.Errorf("%w: new segment %s already holds %d bytes", ErrCorrupt, path, size)
	}
	hdr := encodeMeta(seq, seq)
	if _, err := f.Write(hdr); err != nil {
		//lint:ignore droppederr error path: the header-write error is the diagnostic; a close failure adds nothing
		f.Close()
		//lint:ignore droppederr the half-written shell is re-detected and removed by the next open
		l.fs.Remove(path)
		return fmt.Errorf("store: writing segment header %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		//lint:ignore droppederr error path: the sync error is the diagnostic; a close failure adds nothing
		f.Close()
		return fmt.Errorf("store: syncing segment header %s: %w", path, err)
	}
	l.stats.Syncs++
	if err := l.fs.SyncDir(l.dir); err != nil {
		//lint:ignore droppederr error path: the dir-sync error is the diagnostic; a close failure adds nothing
		f.Close()
		return fmt.Errorf("store: publishing segment %s: %w", path, err)
	}
	seg := &segment{seq: seq, covers: seq, path: path, size: int64(len(hdr))}
	l.segs = append(l.segs, seg)
	l.active = f
	return nil
}

// rotateLocked seals the active segment and starts the next one. On
// failure the old active segment stays writable, so the caller's
// append fails cleanly and a later call retries the rotation.
func (l *Log) rotateLocked() error {
	act := l.activeSegLocked()
	next := act.seq + 1
	old := l.active
	if err := old.Sync(); err != nil {
		return fmt.Errorf("store: sealing segment %s: %w", act.path, err)
	}
	l.stats.Syncs++
	if err := l.createSegmentLocked(next); err != nil {
		return err
	}
	//lint:ignore droppederr the sealed handle was just fsynced; close failure cannot lose data and the fd is abandoned either way
	old.Close()
	l.stats.Rotations++
	return nil
}

func (l *Log) activeSegLocked() *segment { return l.segs[len(l.segs)-1] }

// prepareAppendLocked repairs a torn in-memory tail and rotates when
// the active segment is full, leaving the log ready for one append.
func (l *Log) prepareAppendLocked() error {
	if l.closed {
		return ErrClosed
	}
	act := l.activeSegLocked()
	if l.dirty {
		// A previous append failed partway: the file holds a torn frame
		// past the logical size. Cut it before writing anything else, or
		// the new frame would be unreachable behind garbage.
		if err := l.fs.Truncate(act.path, act.size); err != nil {
			return fmt.Errorf("store: repairing torn tail of %s: %w", act.path, err)
		}
		l.dirty = false
	}
	if act.size >= l.opt.SegmentBytes && act.size > int64(frameHeaderSize+metaPayloadSize) {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

// appendLocked writes one frame to the active segment and, unless
// disabled, fsyncs it. The index is updated only after the bytes are
// fully written.
func (l *Log) appendLocked(frame []byte, rec record) error {
	act := l.activeSegLocked()
	off := act.size
	n, err := l.active.Write(frame)
	l.stats.AppendBytes += int64(n)
	if err != nil || n != len(frame) {
		// Torn append: the file now ends in a partial frame. Mark it for
		// truncation; the logical size still ends at the last good frame.
		l.dirty = true
		if err == nil {
			err = fmt.Errorf("short write (%d of %d bytes)", n, len(frame))
		}
		return fmt.Errorf("store: append to %s: %w", act.path, err)
	}
	act.size += int64(n)
	l.stats.Appends++
	l.applyLocked(rec, loc{seg: act, off: off, n: int64(len(frame)) - frameHeaderSize})
	if err := l.active.Sync(); err != nil {
		// The frame is complete on the page cache but not durable:
		// the caller must not treat it as acknowledged. The in-memory
		// state keeps the record (it may well survive), which is
		// exactly the may-or-may-not persistence an errored Put
		// promises.
		return fmt.Errorf("store: sync %s: %w", act.path, err)
	}
	l.stats.Syncs++
	return nil
}

// Put durably records key→value: when Put returns nil the record is
// fsynced (acknowledged) and must survive any crash.
func (l *Log) Put(key string, value []byte) error {
	if err := validKey(key); err != nil {
		return err
	}
	if len(value) > maxValueLen {
		return fmt.Errorf("store: value for %q is %d bytes (max %d)", key, len(value), maxValueLen)
	}
	frame := encodePut(key, value)
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.prepareAppendLocked(); err != nil {
		return err
	}
	if err := l.appendLocked(frame, record{op: opPut, key: key}); err != nil {
		return err
	}
	l.maybeCompactLocked()
	return nil
}

// Delete durably removes key. Deleting a key the index does not hold
// is a no-op — no tombstone is written, so probes cannot bloat the log.
func (l *Log) Delete(key string) error {
	if err := validKey(key); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if _, ok := l.index[key]; !ok {
		return nil
	}
	frame := encodeDelete(key)
	if err := l.prepareAppendLocked(); err != nil {
		return err
	}
	if err := l.appendLocked(frame, record{op: opDelete, key: key}); err != nil {
		return err
	}
	l.maybeCompactLocked()
	return nil
}

// Get returns the value for key. ok reports presence; a non-nil error
// wrapping ErrCorrupt means the key exists but its bytes are damaged.
// The returned bytes are verified against the frame's checksum on every
// read, so bit rot between writes and reads surfaces as ErrCorrupt
// instead of a silently wrong certificate.
func (l *Log) Get(key string) ([]byte, bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, false, ErrClosed
	}
	at, ok := l.index[key]
	if !ok {
		return nil, false, nil
	}
	buf := make([]byte, at.frameLen())
	if err := l.fs.ReadAt(at.seg.path, buf, at.off); err != nil {
		return nil, true, fmt.Errorf("store: get %q: %w", key, err)
	}
	payload, _, err := parseFrame(buf)
	var rec record
	if err == nil {
		rec, err = parseRecord(payload)
	}
	if err != nil || rec.op != opPut || rec.key != key {
		return nil, true, fmt.Errorf("%w: key %q at %s+%d", ErrCorrupt, key, at.seg.path, at.off)
	}
	l.stats.Reads++
	out := make([]byte, len(rec.value))
	copy(out, rec.value)
	return out, true, nil
}

// Keys returns every live key in lexical order.
func (l *Log) Keys() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	keys := make([]string, 0, len(l.index))
	for k := range l.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Len returns the number of live keys.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.index)
}

// Close flushes and releases the log. It waits for an in-flight
// compaction, then syncs and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	l.compactWG.Wait()
	l.mu.Lock()
	defer l.mu.Unlock()
	var errSync error
	if l.active != nil {
		errSync = l.active.Sync()
		if cerr := l.active.Close(); errSync == nil {
			errSync = cerr
		}
		l.active = nil
	}
	if errSync != nil {
		return fmt.Errorf("store: close: %w", errSync)
	}
	return nil
}

// Stats returns a snapshot of the counters and health.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	s.Segments = len(l.segs)
	s.Records = len(l.index)
	for _, seg := range l.segs {
		s.TotalBytes += seg.size
		s.LiveBytes += seg.live
	}
	return s
}

// Dir returns the directory the log lives in.
func (l *Log) Dir() string { return l.dir }

// validKey bounds keys: non-empty, printable-agnostic, and small.
func validKey(key string) error {
	if key == "" {
		return errors.New("store: empty key")
	}
	if len(key) > maxKeyLen {
		return fmt.Errorf("store: key is %d bytes (max %d)", len(key), maxKeyLen)
	}
	return nil
}
