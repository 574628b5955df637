package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// stubExec replaces the server's executor with one that blocks until
// released (or its context is canceled), so queue mechanics can be
// tested without booting simulators. Returns the release function and a
// channel that receives each job as it starts.
func stubExec(s *Server) (release func(), started chan *Job) {
	gate := make(chan struct{})
	started = make(chan *Job, 64)
	s.exec = func(ctx context.Context, j *Job) error {
		started <- j
		select {
		case <-gate:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return func() { close(gate) }, started
}

// TestQueueBackpressure fills one worker and the whole queue, then
// expects 503 + Retry-After; freeing capacity accepts submissions again.
func TestQueueBackpressure(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 1, QueueDepth: 2})
	release, started := stubExec(s)

	// One running + two queued = at capacity.
	first, _ := postJob(t, ts, lightJob)
	<-started
	for i := 0; i < 2; i++ {
		if _, resp := postJob(t, ts, lightJob); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fill %d: HTTP %d", i, resp.StatusCode)
		}
	}

	_, resp := postJob(t, ts, lightJob)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity submit: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 must carry Retry-After")
	}

	release()
	if st := waitTerminal(t, ts, first.ID); st.State != StateDone {
		t.Fatalf("released job: %s", st.State)
	}
	// The first job reaching a terminal state does not mean the worker has
	// pulled the next one off the queue yet; only its start frees a slot.
	<-started
	if _, resp := postJob(t, ts, lightJob); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-release submit: HTTP %d", resp.StatusCode)
	}
}

// TestRejectedSubmissionsDontBurnIDs pins that a 503'd submission leaves
// the ID sequence dense — determinism of job naming is part of the API.
func TestRejectedSubmissionsDontBurnIDs(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 1, QueueDepth: 1})
	release, started := stubExec(s)
	postJob(t, ts, lightJob) // job-1 running
	<-started
	postJob(t, ts, lightJob) // job-2 queued
	if _, resp := postJob(t, ts, lightJob); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expected 503, got %d", resp.StatusCode)
	}
	release()
	waitTerminal(t, ts, "job-2")
	st, resp := postJob(t, ts, lightJob)
	if resp.StatusCode != http.StatusAccepted || st.ID != "job-3" {
		t.Fatalf("ID after rejection: %q (HTTP %d), want job-3", st.ID, resp.StatusCode)
	}
}

// newTestHTTP mounts an existing Server on httptest without the
// auto-drain cleanup testServer installs — for tests that drive Drain
// themselves.
func newTestHTTP(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestCancelMidJob: DELETE on a running job cancels its context; the job
// lands in state canceled with timestamps set.
func TestCancelMidJob(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 1, QueueDepth: 2})
	_, started := stubExec(s)

	st, _ := postJob(t, ts, lightJob)
	<-started

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: HTTP %d", resp.StatusCode)
	}

	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateCanceled {
		t.Fatalf("canceled job state %s, want canceled", fin.State)
	}
	if fin.Finished == nil {
		t.Fatal("canceled job must carry a finish timestamp")
	}
}

// TestCancelQueuedJob: canceling a job the workers have not picked up yet
// must keep it from ever running.
func TestCancelQueuedJob(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 1, QueueDepth: 4})
	release, started := stubExec(s)

	blocker, _ := postJob(t, ts, lightJob)
	<-started
	queued, _ := postJob(t, ts, lightJob)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	if st := getStatus(t, ts, queued.ID); st.State != StateCanceled {
		t.Fatalf("queued job after cancel: %s", st.State)
	}

	release()
	waitTerminal(t, ts, blocker.ID)
	// The canceled job must never have started: no started timestamp.
	if st := getStatus(t, ts, queued.ID); st.Started != nil {
		t.Fatal("canceled queued job ran anyway")
	}
	select {
	case j := <-started:
		t.Fatalf("worker picked up canceled job %s", j.ID)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestDrain: draining finishes queued and running jobs, then rejects new
// submissions with 503.
func TestDrain(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 4})
	ts := newTestHTTP(t, s)

	a, _ := postJob(t, ts, lightJob)
	b, _ := postJob(t, ts, lightJob)

	ctx, cancel := ctxWithTimeout(30 * time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, st := range []Status{getStatus(t, ts, a.ID), getStatus(t, ts, b.ID)} {
		if st.State != StateDone {
			t.Fatalf("job %s after drain: %s (%s)", st.ID, st.State, st.Error)
		}
	}
	if _, resp := postJob(t, ts, lightJob); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while drained: HTTP %d, want 503", resp.StatusCode)
	}
}

// TestDrainTimeoutCancelsJobs: a drain whose context expires cancels the
// stuck job instead of hanging forever.
func TestDrainTimeoutCancelsJobs(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 2})
	ts := newTestHTTP(t, s)
	_, started := stubExec(s) // never released: the job is stuck

	st, _ := postJob(t, ts, lightJob)
	<-started

	ctx, cancel := ctxWithTimeout(100 * time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("drain of a stuck job must report the expiry")
	}
	if fin := getStatus(t, ts, st.ID); fin.State != StateCanceled {
		t.Fatalf("stuck job after forced drain: %s", fin.State)
	}
}
