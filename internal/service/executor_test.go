package service

import (
	"context"
	"testing"
	"time"
)

// smallRequest is a fast-running request for executor tests.
func smallRequest(platform, algorithm string) JobRequest {
	return JobRequest{
		Platform: platform, Algorithm: algorithm,
		Vertices: 1500, Edges: 8000, Seed: 21,
	}
}

func waitTerminal(t *testing.T, e *Executor, id string) JobState {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := e.jobState(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		switch st.Status {
		case StatusDone, StatusFailed, StatusCanceled:
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobState{}
}

func TestExecutorRunsJob(t *testing.T) {
	store := newStore()
	e := NewExecutorWith(2, 8, store, nil, ExecutorOptions{})
	defer e.Shutdown(context.Background())

	id, err := e.submit(smallRequest("Giraph", "BFS"))
	if err != nil {
		t.Fatal(err)
	}
	if id != "job-0001" {
		t.Fatalf("assigned ID %q, want job-0001", id)
	}
	st := waitTerminal(t, e, id)
	if st.Status != StatusDone {
		t.Fatalf("status %s (%s), want done", st.Status, st.Error)
	}
	if st.Summary == nil || st.Summary.Runtime <= 0 || st.Summary.Operations == 0 {
		t.Fatalf("bad summary: %+v", st.Summary)
	}
	if _, ok := store.get(id); !ok {
		t.Fatalf("done job %s not in store", id)
	}
	// Defaults are recorded on the request.
	if st.Request.GraphKind != "social" || st.Request.Iterations != 10 {
		t.Fatalf("defaults not applied: %+v", st.Request)
	}
}

func TestExecutorRecordsFailure(t *testing.T) {
	e := NewExecutorWith(1, 4, newStore(), nil, ExecutorOptions{})
	defer e.Shutdown(context.Background())

	id, err := e.submit(smallRequest("NoSuchPlatform", "BFS"))
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, e, id)
	if st.Status != StatusFailed || st.Error == "" {
		t.Fatalf("status %s error %q, want failed with message", st.Status, st.Error)
	}
}

func TestExecutorValidatesRequests(t *testing.T) {
	e := NewExecutorWith(1, 4, newStore(), nil, ExecutorOptions{})
	defer e.Shutdown(context.Background())

	bad := []JobRequest{
		{},
		{Platform: "Giraph"},
		{Platform: "Giraph", Algorithm: "BFS", GraphKind: "nope"},
		{Platform: "Giraph", Algorithm: "BFS", Vertices: -1},
	}
	for i, req := range bad {
		if _, err := e.submit(req); err == nil {
			t.Fatalf("case %d: bad request accepted", i)
		}
	}
	// Duplicate IDs are rejected.
	req := smallRequest("Giraph", "BFS")
	req.ID = "dup"
	if _, err := e.submit(req); err != nil {
		t.Fatal(err)
	}
	if _, err := e.submit(req); err == nil {
		t.Fatal("duplicate job ID accepted")
	}
}

func TestExecutorQueueBound(t *testing.T) {
	// Zero workers is clamped to one; stall it with a big job so the
	// 1-slot queue fills.
	e := NewExecutorWith(1, 1, newStore(), nil, ExecutorOptions{})
	defer e.Shutdown(context.Background())

	big := JobRequest{Platform: "Giraph", Algorithm: "PageRank", Vertices: 60_000, Edges: 300_000}
	if _, err := e.submit(big); err != nil {
		t.Fatal(err)
	}
	// Fill the queue, then expect errQueueFull. The first submit may
	// be picked up immediately, so allow one extra.
	full := false
	for i := 0; i < 3; i++ {
		if _, err := e.submit(smallRequest("Giraph", "BFS")); err == errQueueFull {
			full = true
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if !full {
		t.Fatal("queue never reported full")
	}
}

func TestExecutorCancelQueued(t *testing.T) {
	e := NewExecutorWith(1, 8, newStore(), nil, ExecutorOptions{})
	defer e.Shutdown(context.Background())

	// Occupy the single worker, then queue a victim.
	if _, err := e.submit(JobRequest{Platform: "Giraph", Algorithm: "PageRank", Vertices: 60_000, Edges: 300_000}); err != nil {
		t.Fatal(err)
	}
	victim, err := e.submit(smallRequest("Giraph", "BFS"))
	if err != nil {
		t.Fatal(err)
	}
	if !e.cancelJob(victim) {
		st, _ := e.jobState(victim)
		t.Fatalf("could not cancel queued job (status %s)", st.Status)
	}
	st := waitTerminal(t, e, victim)
	if st.Status != StatusCanceled {
		t.Fatalf("status %s, want canceled", st.Status)
	}
	if e.cancelJob(victim) {
		t.Fatal("cancel of a canceled job should fail")
	}
	if e.cancelJob("ghost") {
		t.Fatal("cancel of an unknown job should fail")
	}
}

func TestExecutorShutdownDrains(t *testing.T) {
	store := newStore()
	e := NewExecutorWith(2, 16, store, nil, ExecutorOptions{})

	var ids []string
	for i := 0; i < 6; i++ {
		id, err := e.submit(smallRequest([]string{"Giraph", "PowerGraph", "OpenG"}[i%3], "BFS"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := e.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		st, _ := e.jobState(id)
		if st.Status != StatusDone {
			t.Fatalf("after drain, job %s is %s (%s)", id, st.Status, st.Error)
		}
	}
	if store.Len() != len(ids) {
		t.Fatalf("store has %d jobs after drain, want %d", store.Len(), len(ids))
	}
	// Submissions after shutdown are refused; double shutdown is a no-op.
	if _, err := e.submit(smallRequest("Giraph", "BFS")); err == nil {
		t.Fatal("submit after shutdown accepted")
	}
	if err := e.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestExecutorShutdownDeadlineCancelsQueued(t *testing.T) {
	e := NewExecutorWith(1, 16, newStore(), nil, ExecutorOptions{})

	// One slow job holds the worker; the rest wait in the queue.
	if _, err := e.submit(JobRequest{Platform: "Giraph", Algorithm: "PageRank", Vertices: 60_000, Edges: 300_000}); err != nil {
		t.Fatal(err)
	}
	var queued []string
	for i := 0; i < 4; i++ {
		id, err := e.submit(smallRequest("Giraph", "BFS"))
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := e.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	canceled := 0
	for _, id := range queued {
		if st, _ := e.jobState(id); st.Status == StatusCanceled {
			canceled++
		}
	}
	if canceled == 0 {
		t.Fatal("expired drain should cancel at least one queued job")
	}
}

func TestExecutorStatesOrder(t *testing.T) {
	e := NewExecutorWith(2, 16, newStore(), nil, ExecutorOptions{})
	defer e.Shutdown(context.Background())
	for i := 0; i < 4; i++ {
		if _, err := e.submit(smallRequest("OpenG", "BFS")); err != nil {
			t.Fatal(err)
		}
	}
	states := e.listStates()
	if len(states) != 4 {
		t.Fatalf("States returned %d, want 4", len(states))
	}
	for i, st := range states {
		if want := []string{"job-0001", "job-0002", "job-0003", "job-0004"}[i]; st.ID != want {
			t.Fatalf("states[%d] = %s, want %s", i, st.ID, want)
		}
	}
}
