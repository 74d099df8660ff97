package server

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"adaptivertc/internal/api"
	"adaptivertc/internal/certcache"
	"adaptivertc/internal/checkpoint"
	"adaptivertc/internal/jsr"
	"adaptivertc/internal/store"
)

// jobCkptKind/jobCkptVersion identify the per-job checkpoint format.
// Version 2 keys jobs by the EngineVersion-aware request key and stores
// snapshots that name their invariant block (GripenbergState.Block).
// Records of another version are refused, and Recover drops them like
// corrupt ones: there is no migration.
const (
	jobCkptKind    = "adaserved/job"
	jobCkptVersion = 2
)

// jobCkpt is the persisted job: the full request (so a restarted
// process can rebuild the job from the record alone) plus the latest
// Gripenberg frontier when the search has started. Resuming from the
// frontier finishes with bounds bit-identical to an uninterrupted run.
//
// Records live in the crash-safe segmented log under StateDir/jobs,
// keyed by job id, each value a checkpoint envelope (magic, kind,
// version, checksum).
type jobCkpt struct {
	ID       string
	Key      certcache.Key
	Req      api.CertifyRequest
	HasState bool
	State    jsr.GripenbergState
}

// job is one queued certification. The id is the request's full
// content key, so identical requests share a job.
type job struct {
	id     string
	key    certcache.Key
	req    api.CertifyRequest
	resume *jsr.GripenbergState // set by Recover; read only by the worker

	enqueuedAt time.Time // when the job entered the queue (for the wait histogram)

	mu       sync.Mutex
	state    string
	body     []byte
	errMsg   string
	deadline time.Time // zero = no per-request deadline beyond the server timeout
	// watch is the broadcast channel of the next state transition:
	// created lazily by subscribe, closed (and cleared) by every
	// transition. Closing a channel wakes all waiters at once, so one
	// transition releases every long-poller.
	watch chan struct{}
}

// jobID derives the public job identifier from the content key: the
// full hex digest, not a prefix. Truncation would map distinct
// requests onto one job with probability governed by the birthday
// bound on the truncated width — a 16-hex-char id collides with ~50%
// probability around 2^32 jobs, well within reach of a busy service,
// and a collision silently serves one request the other's
// certificate. The full 256-bit key makes that impossible in practice
// (and matches the key the certificate store records the result
// under).
func jobID(key certcache.Key) string { return key.String() }

func (j *job) setState(st string) {
	j.mu.Lock()
	j.state = st
	j.notifyLocked()
	j.mu.Unlock()
}

// finish publishes the job's certificate. A done job serves only its
// body, so the request and any resume frontier are dropped: the
// registry keeps every job the server has run, and the matrices would
// otherwise stay resident for each of them.
func (j *job) finish(body []byte) {
	j.mu.Lock()
	j.state = api.JobDone
	j.body = body
	j.req = api.CertifyRequest{}
	j.resume = nil
	j.notifyLocked()
	j.mu.Unlock()
}

func (j *job) fail(err error) {
	j.mu.Lock()
	j.state = api.JobFailed
	j.errMsg = err.Error()
	j.notifyLocked()
	j.mu.Unlock()
}

// notifyLocked wakes every watcher of the pending transition; callers
// hold j.mu.
func (j *job) notifyLocked() {
	if j.watch != nil {
		close(j.watch)
		j.watch = nil
	}
}

// subscribe returns a channel closed at the job's next state
// transition (shared by all concurrent watchers).
func (j *job) subscribe() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.watch == nil {
		j.watch = make(chan struct{})
	}
	return j.watch
}

func (j *job) status() api.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return api.JobStatus{ID: j.id, State: j.state, Error: j.errMsg}
}

func (j *job) resultBody() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.body
}

// jobStore indexes jobs by id.
type jobStore struct {
	mu   sync.Mutex
	jobs map[string]*job
}

func newJobStore() *jobStore {
	return &jobStore{jobs: make(map[string]*job)}
}

func (st *jobStore) get(id string) *job {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.jobs[id]
}

// getOrCreate returns the existing job for id, or registers a new
// queued one carrying deadline. The boolean reports whether the job
// already existed (in which case deadline is NOT applied — the caller
// relaxes it explicitly).
func (st *jobStore) getOrCreate(id string, req api.CertifyRequest, key certcache.Key, deadline time.Time) (*job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if j, ok := st.jobs[id]; ok {
		return j, true
	}
	j := &job{id: id, key: key, req: req, state: api.JobQueued, deadline: deadline, enqueuedAt: time.Now()}
	st.jobs[id] = j
	return j, false
}

func (st *jobStore) remove(id string) {
	st.mu.Lock()
	delete(st.jobs, id)
	st.mu.Unlock()
}

// counts tallies jobs by state.
func (st *jobStore) counts() (queued, running, done, failed int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, j := range st.jobs {
		switch j.status().State {
		case api.JobQueued:
			queued++
		case api.JobRunning:
			running++
		case api.JobDone:
			done++
		case api.JobFailed:
			failed++
		}
	}
	return
}

// enqueue registers a job for the request and pushes it on the queue.
// Identical requests (same content key) share a job; a previously
// failed job is retried. A full queue is an error — the handler maps
// it to 503 + Retry-After rather than blocking intake. deadline, when
// non-zero, bounds the job's computation; a duplicate submission
// relaxes an existing deadline (the most patient client wins, and the
// shared certificate serves everyone).
func (s *Server) enqueue(req api.CertifyRequest, key certcache.Key, deadline time.Time) (*job, error) {
	id := jobID(key)
	j, existed := s.jobs.getOrCreate(id, req, key, deadline)
	if existed {
		j.relaxDeadline(deadline)
		st := j.status()
		if st.State != api.JobFailed {
			return j, nil
		}
		// Retry a failed job: reset and fall through to re-queue.
		j.mu.Lock()
		j.state = api.JobQueued
		j.errMsg = ""
		j.notifyLocked()
		j.mu.Unlock()
	}
	if err := s.writeJobCkpt(j, nil); err != nil {
		// Persistence is best-effort at enqueue time: the job still
		// runs, it just won't survive a restart before its first
		// frontier snapshot.
		s.metrics.ckptErrs.Add(1)
	}
	select {
	case s.queue <- j:
		return j, nil
	default:
		// Reject without leaving residue: a failed-looking job in the
		// store would be served as a stale failure to the next
		// identical request (and its checkpoint would resurrect the
		// rejected job on restart). The 503 is the whole answer.
		s.jobs.remove(id)
		s.removeJobCkpt(id)
		return nil, fmt.Errorf("job queue full (capacity %d)", s.cfg.QueueSize)
	}
}

// relaxDeadline widens an existing job's deadline: a zero deadline
// (this client sets no bound) clears it, a later one extends it, and
// an earlier one is ignored — a job shared by several clients must
// honor the most patient request it represents, and can only ever get
// more patient.
func (j *job) relaxDeadline(deadline time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.deadline.IsZero():
		// Already unbounded (beyond the server timeout); stay there.
	case deadline.IsZero():
		j.deadline = time.Time{}
	case deadline.After(j.deadline):
		j.deadline = deadline
	}
}

// getDeadline returns the job's current absolute deadline (zero =
// none).
func (j *job) getDeadline() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.deadline
}

// runJob executes one job through the certificate cache. Shutdown
// (baseCtx cancelled) puts the job back to queued and leaves its
// checkpoint in the store for Recover; every other failure is final.
func (s *Server) runJob(j *job) {
	s.busy.Add(1)
	defer s.busy.Add(-1)
	s.metrics.observeQueueWait(time.Since(j.enqueuedAt).Seconds())
	j.setState(api.JobRunning)

	opt := j.req.GripenbergOptions(0)
	opt.Resume = j.resume
	if s.jobLog != nil {
		id, key, req := j.id, j.key, j.req
		opt.Snapshot = paceSnapshots(jobSnapshotInterval, time.Now, func(st jsr.GripenbergState) error {
			return s.putJobCkpt(jobCkpt{
				ID: id, Key: key, Req: req, HasState: true, State: st,
			})
		})
	}
	// A client-requested deadline bounds this job's context on top of
	// the per-job server timeout certify applies.
	ctx := s.baseCtx
	if dl := j.getDeadline(); !dl.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(s.baseCtx, dl)
		defer cancel()
	}
	start := time.Now()
	body, _, err := s.cache.GetOrCompute(ctx, j.key, func(ctx context.Context) ([]byte, error) {
		// Resolved here, not at enqueue: a recovered job arrives with
		// its request alone.
		set, err := j.req.Resolve()
		if err != nil {
			return nil, err
		}
		return s.certify(ctx, j.req, set, opt)
	})
	// Every completion — success or failure — occupied a worker for
	// this long; the drain estimator turns that into Retry-After.
	s.drain.observe(time.Since(start).Seconds())
	switch {
	case err == nil:
		// Delete the checkpoint before publishing the terminal state:
		// the certificate is already durable in the cache, so a crash
		// in between merely re-runs the job into a cache hit. Deleting
		// after would let an observer see "done" while the record still
		// exists.
		s.removeJobCkpt(j.id)
		j.finish(body)
	case s.baseCtx.Err() != nil:
		// Forced shutdown: the frontier checkpoint (if any) is the
		// job's future. Recover in the next process re-enqueues it.
		j.setState(api.JobQueued)
	default:
		s.removeJobCkpt(j.id)
		j.fail(err)
	}
}

// jobSnapshotInterval is the least search time between two persisted
// frontier snapshots of one job. Every persisted snapshot is an fsynced
// append of the request and the frontier (several KB), while a
// Gripenberg level takes about a millisecond: persisting every level
// would make the job log the bulk of a short job's cost, and its write
// volume would force segment rotations, whose compaction stalls every
// fsync on the filesystem while the dead segment's blocks are freed. A
// crash loses at most this much search plus one level; the resumed
// search is bit-identical either way.
const jobSnapshotInterval = time.Second

// paceSnapshots wraps the Snapshot hook persist so that a level is
// persisted only when at least every has elapsed on the clock now since
// the search started or since the last persisted level; the levels in
// between are skipped. A failed persist leaves the clock where it was.
func paceSnapshots(every time.Duration, now func() time.Time, persist func(jsr.GripenbergState) error) func(jsr.GripenbergState) error {
	last := now()
	return func(st jsr.GripenbergState) error {
		if now().Sub(last) < every {
			return nil
		}
		if err := persist(st); err != nil {
			return err
		}
		last = now()
		return nil
	}
}

// putJobCkpt marshals ck into a checkpoint envelope and appends it to
// the job log under its id. The log's Put fsyncs before returning, so
// a nil error means the checkpoint survives a crash.
func (s *Server) putJobCkpt(ck jobCkpt) error {
	data, err := checkpoint.Marshal(jobCkptKind, jobCkptVersion, ck)
	if err != nil {
		return err
	}
	return s.jobLog.Put(ck.ID, data)
}

func (s *Server) writeJobCkpt(j *job, state *jsr.GripenbergState) error {
	if s.jobLog == nil {
		return nil
	}
	ck := jobCkpt{ID: j.id, Key: j.key, Req: j.req}
	if state != nil {
		ck.HasState, ck.State = true, *state
	}
	return s.putJobCkpt(ck)
}

func (s *Server) removeJobCkpt(id string) {
	if s.jobLog != nil {
		//lint:ignore droppederr removal is best-effort: a stale record is re-checked (and dropped) by the next Recover
		s.jobLog.Delete(id)
	}
}

// jobsDir is the state subdirectory holding the job checkpoint log.
func (s *Server) jobsDir() string {
	return filepath.Join(s.cfg.StateDir, "jobs")
}

// Recover re-enqueues the job checkpoints a previous process left in
// the store — with their Gripenberg frontier when one was snapshotted,
// so the resumed search finishes bit-identical to an uninterrupted
// one. Corrupt records are deleted (the request itself lives inside
// the record; nothing can be salvaged from a bad one). Returns the
// number of jobs re-enqueued. Call before Start.
func (s *Server) Recover() (int, error) {
	if s.jobLog == nil {
		return 0, nil
	}
	n := 0
	for _, id := range s.jobLog.Keys() {
		data, ok, err := s.jobLog.Get(id)
		if err != nil || !ok {
			// Corrupt or vanished underneath us: evict, don't resurrect.
			s.removeJobCkpt(id)
			continue
		}
		var ck jobCkpt
		if err := checkpoint.Unmarshal(data, jobCkptKind, jobCkptVersion, &ck); err != nil || ck.ID != id {
			s.removeJobCkpt(id)
			continue
		}
		j, existed := s.jobs.getOrCreate(ck.ID, ck.Req, ck.Key, time.Time{})
		if existed {
			continue
		}
		if ck.HasState {
			st := ck.State
			j.resume = &st
		}
		select {
		case s.queue <- j:
			n++
		default:
			// The record stays in the log for the next Recover;
			// dropping it would silently lose a job.
			s.jobs.remove(ck.ID)
			return n, fmt.Errorf("server: job queue full while recovering %s (capacity %d)", ck.ID, s.cfg.QueueSize)
		}
	}
	return n, nil
}

// JobStoreStats returns the job log's counters and health; the zero
// value when job persistence is disabled.
func (s *Server) JobStoreStats() store.Stats {
	if s.jobLog == nil {
		return store.Stats{}
	}
	return s.jobLog.Stats()
}
