package monitor

import (
	"strings"
	"testing"

	"repro/internal/envmon"
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

// TestAssembleErrors runs every malformed operation log through both
// ways into the Assembler: Assemble, which checks and adds one record
// at a time, and AddBatch with complete set, which the live stream's
// ingest uses. Both must refuse with the same reason, and a refused
// batch must add nothing.
func TestAssembleErrors(t *testing.T) {
	info := func(t float64, op, key string) trace.Record {
		return trace.Record{Time: t, Job: "j", Op: op, Event: trace.EventInfo, Key: key, Value: "v"}
	}
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
		{"duplicate start under itself", []trace.Record{
			rec(0, "j", "a", "", "", "Job", trace.EventStart),
			rec(0, "j", "a", "a", "", "X", trace.EventStart),
		}, "duplicate start"},
		{"end before start", []trace.Record{
			rec(0, "j", "a", "", "", "", trace.EventEnd),
		}, "end before start"},
		{"duplicate end", []trace.Record{
			rec(0, "j", "a", "", "c", "m", trace.EventStart),
			rec(1, "j", "a", "", "", "", trace.EventEnd),
			rec(2, "j", "a", "", "", "", trace.EventEnd),
		}, "duplicate end"},
		{"info before start", []trace.Record{info(0, "a", "k")}, "info before start"},
		{"never ended", []trace.Record{
			rec(0, "j", "a", "", "c", "m", trace.EventStart),
		}, "never ended"},
		{"unknown parent", []trace.Record{
			rec(0, "j", "a", "ghost", "c", "m", trace.EventStart),
			rec(1, "j", "a", "", "", "", trace.EventEnd),
		}, "unknown parent"},
		// The one log the Assembler refuses and the assembler before it
		// accepted: a parent must start before its children.
		{"parent starts later", []trace.Record{
			rec(0, "j", "a", "", "c", "Job", trace.EventStart),
			rec(1, "j", "b", "c", "c", "m", trace.EventStart),
			rec(1, "j", "c", "a", "c", "m", trace.EventStart),
			rec(2, "j", "b", "", "", "", trace.EventEnd),
			rec(2, "j", "c", "", "", "", trace.EventEnd),
			rec(3, "j", "a", "", "", "", trace.EventEnd),
		}, "unknown parent"},
		{"multiple roots", []trace.Record{
			rec(0, "j", "a", "", "c", "m", trace.EventStart),
			rec(1, "j", "a", "", "", "", trace.EventEnd),
			rec(0, "j", "b", "", "c", "m", trace.EventStart),
			rec(1, "j", "b", "", "", "", trace.EventEnd),
		}, "multiple root"},
		{"second root", []trace.Record{
			rec(0, "j", "a", "", "", "Job", trace.EventStart),
			rec(0, "j", "b", "", "", "Job", trace.EventStart),
		}, "multiple root"},
		{"unknown event", []trace.Record{
			rec(0, "j", "a", "", "c", "m", "bogus"),
		}, "unknown event"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Assemble("j", "p", c.records, nil); err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Assemble: error %v does not contain %q", err, c.wantErr)
			}
			a := NewAssembler("j")
			if err := a.AddBatch(c.records, true); err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("AddBatch: error %v does not contain %q", err, c.wantErr)
			}
			if a.Open() != 0 || a.root != nil || len(a.ops) != 0 || a.Ended() != 0 {
				t.Fatal("a refused batch changed the assembler")
			}
		})
	}
}
