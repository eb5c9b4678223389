package monitor

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/envmon"
	"repro/internal/sim"
	"repro/internal/trace"
)

func rec(t float64, job, op, parent, actor, mission string, ev trace.EventType) trace.Record {
	return trace.Record{Time: t, Job: job, Op: op, Parent: parent, Actor: actor, Mission: mission, Event: ev}
}

func TestAssembleBuildsTree(t *testing.T) {
	records := []trace.Record{
		rec(0, "j", "a", "", "Client", "Job", trace.EventStart),
		rec(1, "j", "b", "a", "Worker-1", "Load", trace.EventStart),
		{Time: 1.5, Job: "j", Op: "b", Event: trace.EventInfo, Key: "Bytes", Value: "10"},
		rec(2, "j", "b", "", "", "", trace.EventEnd),
		rec(3, "j", "a", "", "", "", trace.EventEnd),
		// Records of a different job must be ignored.
		rec(0, "other", "x", "", "c", "m", trace.EventStart),
		rec(1, "other", "x", "", "", "", trace.EventEnd),
	}
	samples := []envmon.Sample{
		{Time: 2, Node: "n1", Kind: "cpu", Used: 1},
		{Time: 1, Node: "n0", Kind: "cpu", Used: 2},
	}
	job, err := Assemble("j", "Giraph", records, samples)
	if err != nil {
		t.Fatal(err)
	}
	if job.Root.Mission != "Job" || len(job.Root.Children) != 1 {
		t.Fatalf("root = %+v", job.Root)
	}
	child := job.Root.Children[0]
	if child.Mission != "Load" || child.Infos["Bytes"] != "10" {
		t.Fatalf("child = %+v", child)
	}
	if child.Start != 1 || child.End != 2 {
		t.Fatalf("child interval = [%v,%v]", child.Start, child.End)
	}
	// Samples sorted by time.
	if len(job.EnvSamples) != 2 || job.EnvSamples[0].Time != 1 {
		t.Fatalf("samples = %+v", job.EnvSamples)
	}
	if err := job.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name    string
		records []trace.Record
		wantErr string
	}{
		{"no records", nil, "no records"},
		{"duplicate start", []trace.Record{
			rec(0, "j", "a", "", "c", "m", trace.EventStart),
			rec(1, "j", "a", "", "c", "m", trace.EventStart),
		}, "duplicate start"},
		{"end before start", []trace.Record{
			rec(0, "j", "a", "", "", "", trace.EventEnd),
		}, "end before start"},
		{"duplicate end", []trace.Record{
			rec(0, "j", "a", "", "c", "m", trace.EventStart),
			rec(1, "j", "a", "", "", "", trace.EventEnd),
			rec(2, "j", "a", "", "", "", trace.EventEnd),
		}, "duplicate end"},
		{"info before start", []trace.Record{
			{Time: 0, Job: "j", Op: "a", Event: trace.EventInfo, Key: "k", Value: "v"},
		}, "info before start"},
		{"never ended", []trace.Record{
			rec(0, "j", "a", "", "c", "m", trace.EventStart),
		}, "never ended"},
		{"unknown parent", []trace.Record{
			rec(0, "j", "a", "ghost", "c", "m", trace.EventStart),
			rec(1, "j", "a", "", "", "", trace.EventEnd),
		}, "unknown parent"},
		{"multiple roots", []trace.Record{
			rec(0, "j", "a", "", "c", "m", trace.EventStart),
			rec(1, "j", "a", "", "", "", trace.EventEnd),
			rec(0, "j", "b", "", "c", "m", trace.EventStart),
			rec(1, "j", "b", "", "", "", trace.EventEnd),
		}, "multiple root"},
	}
	for _, c := range cases {
		_, err := Assemble("j", "p", c.records, nil)
		if err == nil {
			t.Fatalf("%s: expected error", c.name)
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Fatalf("%s: error %q does not contain %q", c.name, err, c.wantErr)
		}
	}
}

func TestSessionRunsEndToEnd(t *testing.T) {
	eng := sim.NewEngine()
	c := cluster.New(eng, cluster.Config{
		Nodes: 2, CoresPerNode: 4,
		DiskBandwidth: 100, NICBandwidth: 100, SharedFSBandwidth: 100,
		NodeNamePrefix: "n",
	})
	s := &Session{Cluster: c, SampleInterval: 0.5, JobID: "sess-1", Platform: "Test"}
	job, err := s.Run(func(p *sim.Proc, em *trace.Emitter) error {
		root := em.Start(trace.Root, "Client", "Job")
		work := em.Start(root, "Worker", "Work")
		c.Node(0).Exec(p, 2) // 2 cpu-seconds
		em.End(work)
		em.End(root)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if job.ID != "sess-1" || job.Platform != "Test" {
		t.Fatalf("job meta = %s/%s", job.ID, job.Platform)
	}
	if job.Root.Mission != "Job" || len(job.Root.Children) != 1 {
		t.Fatalf("tree wrong: %+v", job.Root)
	}
	if job.Root.Duration() < 2 {
		t.Fatalf("root duration = %v, want >= 2", job.Root.Duration())
	}
	// The environment monitor must have recorded the CPU work.
	total := 0.0
	for _, s := range job.EnvSamples {
		total += s.CPUUsed()
	}
	if total < 2-1e-6 {
		t.Fatalf("sampled CPU = %v, want ~2", total)
	}
	if n := eng.Shutdown(); n != 0 {
		t.Fatalf("leaked %d processes", n)
	}
}

func TestSessionPropagatesBodyError(t *testing.T) {
	eng := sim.NewEngine()
	c := cluster.New(eng, cluster.Config{
		Nodes: 1, CoresPerNode: 1,
		DiskBandwidth: 1, NICBandwidth: 1, SharedFSBandwidth: 1,
		NodeNamePrefix: "n",
	})
	s := &Session{Cluster: c, JobID: "fail", Platform: "Test"}
	_, err := s.Run(func(p *sim.Proc, em *trace.Emitter) error {
		return strings.NewReader("").UnreadByte() // any error
	})
	if err == nil {
		t.Fatal("expected body error to propagate")
	}
}

func TestSessionDefaultInterval(t *testing.T) {
	eng := sim.NewEngine()
	c := cluster.New(eng, cluster.Config{
		Nodes: 1, CoresPerNode: 1,
		DiskBandwidth: 1, NICBandwidth: 1, SharedFSBandwidth: 1,
		NodeNamePrefix: "n",
	})
	s := &Session{Cluster: c, JobID: "d", Platform: "Test"}
	job, err := s.Run(func(p *sim.Proc, em *trace.Emitter) error {
		op := em.Start(trace.Root, "c", "Job")
		p.Sleep(2.5)
		em.End(op)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(job.EnvSamples) < 2 {
		t.Fatalf("samples = %d, want >= 2 at default 1s interval", len(job.EnvSamples))
	}
	_ = eng
}
