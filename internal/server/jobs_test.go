package server

import (
	"errors"
	"testing"
	"time"

	"adaptivertc/internal/api"
	"adaptivertc/internal/jsr"
)

// paceSnapshots persists a level only once the interval has elapsed
// since the search started or since the last persisted level, and a
// failed persist is returned without resetting the clock.
func TestPaceSnapshots(t *testing.T) {
	t0 := time.Unix(1000, 0)
	now := t0
	var persisted []int
	fail := false
	hook := paceSnapshots(time.Second, func() time.Time { return now }, func(st jsr.GripenbergState) error {
		if fail {
			return errors.New("disk full")
		}
		persisted = append(persisted, st.Depth)
		return nil
	})
	steps := []struct {
		at    time.Duration
		depth int
		fail  bool
	}{
		{100 * time.Millisecond, 2, false},  // skipped: 0.1 s since start
		{999 * time.Millisecond, 3, false},  // skipped: just short of 1 s
		{1000 * time.Millisecond, 4, false}, // persisted: 1 s since start
		{1500 * time.Millisecond, 5, false}, // skipped: 0.5 s since depth 4
		{2100 * time.Millisecond, 6, true},  // due, but the persist fails
		{2200 * time.Millisecond, 7, false}, // still due: the failure reset nothing
		{2300 * time.Millisecond, 8, false}, // skipped: 0.1 s since depth 7
	}
	for _, s := range steps {
		now = t0.Add(s.at)
		fail = s.fail
		err := hook(jsr.GripenbergState{Depth: s.depth})
		if (err != nil) != s.fail {
			t.Fatalf("depth %d at %v: err = %v, want failure %v", s.depth, s.at, err, s.fail)
		}
	}
	want := []int{4, 7}
	if len(persisted) != len(want) || persisted[0] != want[0] || persisted[1] != want[1] {
		t.Fatalf("persisted depths %v, want %v", persisted, want)
	}
}

// A finished job keeps its body and drops the request it no longer
// needs; a failed job keeps the request, which a retry re-queues.
func TestFinishDropsRequest(t *testing.T) {
	req := api.CertifyRequest{Version: 1, Matrices: [][][]float64{{{0.5}}}}
	done := &job{id: "a", req: req, resume: &jsr.GripenbergState{Depth: 3}, state: api.JobRunning}
	done.finish([]byte("cert\n"))
	if done.req.Matrices != nil || done.resume != nil {
		t.Fatalf("finished job still holds its request (%v) or frontier (%v)", done.req.Matrices, done.resume)
	}
	if st := done.status(); st.State != api.JobDone || string(done.resultBody()) != "cert\n" {
		t.Fatalf("finished job: state %q body %q", st.State, done.resultBody())
	}
	failed := &job{id: "b", req: req, state: api.JobRunning}
	failed.fail(errors.New("boom"))
	if failed.req.Matrices == nil {
		t.Fatal("failed job lost the request a retry needs")
	}
}
