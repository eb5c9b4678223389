package platforms

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/archive"
	"repro/internal/query"
	"repro/internal/viz"
)

// pipelineBytes runs the full analysis pipeline — platform run, archive
// serialization, queries, and every visualization — and returns one byte
// blob capturing all of it. Any map-iteration (or other) nondeterminism
// anywhere in the pipeline shows up as a byte diff between repeats.
func pipelineBytes(t *testing.T, platform string) []byte {
	t.Helper()
	ds := smallDataset(t)
	out, err := Run(Spec{
		Platform:  platform,
		Algorithm: "BFS",
		Dataset:   ds,
		Cluster:   smallCluster(),
		WorkScale: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer

	// Archive serialization.
	a := archive.New()
	a.Add(out.Job)
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}

	// Queries over the archived job, including ordering and info access.
	cols := query.BuildColumns(out.Job)
	f := cols.Frame(query.JobMeta{ID: out.Job.ID})
	for _, qs := range []string{
		`mission = Compute order by start`,
		`actor ~ Worker and duration > 0 order by duration desc limit 10`,
		`depth = 1`,
	} {
		q, err := query.Parse(qs)
		if err != nil {
			t.Fatalf("parse %q: %v", qs, err)
		}
		for _, r := range q.SelectColumns(cols) {
			fmt.Fprintf(&buf, "%s %s %s %.6f %.6f\n", f.Syms[f.ID[r]], f.Syms[f.Mission[r]], f.Syms[f.Actor[r]], f.Start[r], f.End[r])
		}
	}

	// Visualizations: text, SVG, and the HTML report.
	buf.WriteString(viz.OperationTree(out.Job))
	if bar, err := viz.BreakdownBar(out.Job, 72); err == nil {
		buf.WriteString(bar)
	}
	buf.WriteString(viz.CPUTimeline(out.Job, 16, 48))
	buf.WriteString(viz.WorkerGantt(out.Job, 96, 1, 0))
	buf.WriteString(viz.SVGBreakdown(out.Job))
	buf.WriteString(viz.SVGCPUChart(out.Job))
	buf.WriteString(viz.SVGWorkerGantt(out.Job, 1, 0))
	buf.WriteString(viz.HTMLReport(a))

	// Model-conformance errors (exercises core.CheckJob's emit order).
	for _, e := range out.ModelErrors {
		buf.WriteString(e.Error())
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestPipelineByteDeterminism runs the whole pipeline (run → archive →
// query → viz) twice per platform and requires byte-identical output.
// This is the regression net for map-iteration nondeterminism: a single
// `for k, v := range m` feeding any serialized output will flake here.
func TestPipelineByteDeterminism(t *testing.T) {
	for _, platform := range []string{"Giraph", "PowerGraph"} {
		t.Run(platform, func(t *testing.T) {
			first := pipelineBytes(t, platform)
			second := pipelineBytes(t, platform)
			if !bytes.Equal(first, second) {
				t.Fatalf("%s pipeline output differs between identical runs: %d vs %d bytes (first divergence at byte %d)",
					platform, len(first), len(second), firstDiff(first, second))
			}
		})
	}
}

// firstDiff returns the index of the first differing byte.
func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
