package pregel

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

func TestCheckpointingEmitsOpsAndCostsTime(t *testing.T) {
	ds := testDataset(t)

	envPlain := newTestEnv(t, ds, 1)
	plain := runJob(t, envPlain, testJobConfig(4), bfs{source: 0}, ds)

	envCk := newTestEnv(t, ds, 1)
	cfg := testJobConfig(4)
	cfg.CheckpointInterval = 2
	ck := runJob(t, envCk, cfg, bfs{source: 0}, ds)

	// Same algorithm output.
	for v := range plain.Values {
		if plain.Values[v] != ck.Values[v] {
			t.Fatalf("vertex %d differs with checkpointing", v)
		}
	}
	// Checkpointing costs time.
	if ck.Runtime <= plain.Runtime {
		t.Fatalf("checkpointed runtime %.2fs not above plain %.2fs", ck.Runtime, plain.Runtime)
	}
	// One Checkpoint op per eligible superstep, each with one
	// LocalCheckpoint per worker.
	counts := map[string]int{}
	for _, r := range envCk.log.Records() {
		if r.Event == trace.EventStart {
			counts[r.Mission]++
		}
	}
	wantCk := (ck.Supersteps + 1) / 2 // supersteps 0,2,4,...
	if counts["Checkpoint"] != wantCk {
		t.Fatalf("Checkpoint ops = %d, want %d (supersteps %d)", counts["Checkpoint"], wantCk, ck.Supersteps)
	}
	if counts["LocalCheckpoint"] != wantCk*4 {
		t.Fatalf("LocalCheckpoint ops = %d, want %d", counts["LocalCheckpoint"], wantCk*4)
	}
	// Checkpoint files landed in HDFS.
	for step := 0; step < ck.Supersteps; step += 2 {
		for w := 0; w < 4; w++ {
			path := fmt.Sprintf("/checkpoints/%s/step-%04d/part-%03d", envCk.em.Job(), step, w)
			if !envCk.deps.HDFS.Exists(path) {
				t.Fatalf("checkpoint file %s missing", path)
			}
		}
	}
}

func TestFailureRecoveryProducesCorrectResult(t *testing.T) {
	ds := testDataset(t)

	envPlain := newTestEnv(t, ds, 1)
	plain := runJob(t, envPlain, testJobConfig(4), bfs{source: 0}, ds)

	envFail := newTestEnv(t, ds, 1)
	cfg := testJobConfig(4)
	cfg.CheckpointInterval = 2
	cfg.FailWorker = 1
	cfg.FailAtSuperstep = 3
	failed := runJob(t, envFail, cfg, bfs{source: 0}, ds)

	// Recovery must not change the algorithm's output.
	for v := range plain.Values {
		if plain.Values[v] != failed.Values[v] {
			t.Fatalf("vertex %d differs after failure recovery", v)
		}
	}
	// The failed run replays supersteps 2..3 and pays recovery latency.
	if failed.ReplayedSupersteps != 1 {
		t.Fatalf("replayed = %d, want 1 (checkpoint at 2, failure at 3)", failed.ReplayedSupersteps)
	}
	if failed.Runtime <= plain.Runtime {
		t.Fatalf("failed-run runtime %.2fs not above plain %.2fs", failed.Runtime, plain.Runtime)
	}
	// The recovery operations appear in the trace, once each.
	counts := map[string]int{}
	for _, r := range envFail.log.Records() {
		if r.Event == trace.EventStart {
			counts[r.Mission]++
		}
	}
	for _, m := range []string{"RecoverWorker", "DetectFailure", "RestartWorker", "RestoreCheckpoint"} {
		if counts[m] != 1 {
			t.Fatalf("%s ops = %d, want 1", m, counts[m])
		}
	}
	if counts["LocalRestore"] != 4 {
		t.Fatalf("LocalRestore ops = %d, want 4", counts["LocalRestore"])
	}
	// No leaked processes despite the crash-and-restart.
	if n := envFail.eng.Shutdown(); n != 0 {
		t.Fatalf("leaked %d processes", n)
	}
}

func TestRecoveredJobStillConformsStructurally(t *testing.T) {
	ds := testDataset(t)
	env := newTestEnv(t, ds, 1)
	cfg := testJobConfig(4)
	cfg.CheckpointInterval = 2
	cfg.FailWorker = 0
	cfg.FailAtSuperstep = 2
	runJob(t, env, cfg, bfs{source: 0}, ds)

	// Structural sanity of the trace (starts/ends matched, children
	// within parents) must survive the recovery path.
	started := map[string]trace.Record{}
	ended := map[string]float64{}
	for _, r := range env.log.Records() {
		switch r.Event {
		case trace.EventStart:
			started[r.Op] = r
		case trace.EventEnd:
			ended[r.Op] = r.Time
		}
	}
	if len(started) != len(ended) {
		t.Fatalf("%d starts vs %d ends", len(started), len(ended))
	}
	for id, s := range started {
		if s.Parent == "" {
			continue
		}
		ps, ok := started[s.Parent]
		if !ok {
			t.Fatalf("op %s has unknown parent", id)
		}
		if s.Time < ps.Time-1e-9 || ended[id] > ended[s.Parent]+1e-9 {
			t.Fatalf("op %s (%s) outside parent %s", id, s.Mission, ps.Mission)
		}
	}
}

func TestFailureInjectionValidation(t *testing.T) {
	ds := testDataset(t)
	cases := []Config{
		func() Config {
			c := testJobConfig(4)
			c.FailAtSuperstep = 2 // no checkpointing
			return c
		}(),
		func() Config {
			c := testJobConfig(4)
			c.CheckpointInterval = 2
			c.FailAtSuperstep = 2
			c.FailWorker = 9 // out of range
			return c
		}(),
		func() Config {
			c := testJobConfig(4)
			c.CheckpointInterval = -1
			return c
		}(),
	}
	env2 := newTestEnv(t, ds, 1)
	env2.eng.Spawn("client", func(p *sim.Proc) {
		for i, cfg := range cases {
			if _, err := RunJob(p, env2.deps, cfg, bfs{}, ds, env2.em); err == nil {
				t.Errorf("case %d: expected error", i)
			}
		}
	})
	if err := env2.eng.Run(); err != nil {
		t.Fatal(err)
	}
}
