package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"sllt/internal/cache"
	"sllt/internal/obs"
)

// heldRequest reports whether the job still references its request.
func heldRequest(j *Job) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.req != nil
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never reached a terminal state", j.id)
	}
}

// TestTerminalJobReleasesRequest: a retained job must not keep its request
// (the LEF, DEF and Liberty text) alive once it is done, failed or
// cancelled — including a queued job cancelled before a runner claimed it.
func TestTerminalJobReleasesRequest(t *testing.T) {
	release := make(chan struct{})
	flow := func(ctx context.Context, req *JobRequest, workers int, rec *obs.Recorder, store *cache.Cache) (*FlowResult, error) {
		switch req.Design {
		case "block":
			<-release
		case "fail":
			return nil, errors.New("stub failure")
		}
		return &FlowResult{DEF: []byte("DESIGN stub ;\n")}, nil
	}
	s := New(Config{QueueDepth: 4, Runners: 1, Flow: flow})
	defer s.Close()

	submit := func(design string) *Job {
		j, err := s.Submit(&JobRequest{LEF: "l", DEF: "d", Design: design})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	blocker := submit("block")
	queued := submit("cancel-me")
	if !heldRequest(queued) {
		t.Fatal("queued job lost its request before running")
	}
	s.Cancel(queued.id)
	close(release)
	failed := submit("fail")
	for _, c := range []struct {
		j    *Job
		want State
	}{{blocker, StateDone}, {queued, StateCancelled}, {failed, StateFailed}} {
		waitDone(t, c.j)
		if st := c.j.status().State; st != c.want {
			t.Errorf("%s: state %s, want %s", c.j.id, st, c.want)
		}
		if heldRequest(c.j) {
			t.Errorf("%s: %s job still references its request", c.j.id, c.want)
		}
	}
}

// TestRunnerSkipsTerminalJob: a runner that dequeues a job already in a
// terminal state must neither run it nor read its released request.
func TestRunnerSkipsTerminalJob(t *testing.T) {
	flow := func(context.Context, *JobRequest, int, *obs.Recorder, *cache.Cache) (*FlowResult, error) {
		t.Error("flow ran for a terminal job")
		return nil, nil
	}
	s := New(Config{Runners: 1, Flow: flow})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{id: "job-terminal", req: &JobRequest{}, ctx: ctx, cancel: cancel,
		events: newEventLog(), done: make(chan struct{}), state: StateQueued}
	j.finish(StateCancelled, context.Canceled.Error(), 1)
	s.runJob(j)
	if st := j.status(); st.State != StateCancelled || st.StartedNs != 0 {
		t.Errorf("terminal job touched by runner: %+v", st)
	}
}
