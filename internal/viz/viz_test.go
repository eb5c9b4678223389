package viz

import (
	"strings"
	"testing"

	"repro/internal/archive"
)

// gantJob builds a job with two supersteps over two workers, with phase
// children, plus env samples.
func ganttJob() *archive.Job {
	mkLocal := func(id, worker string, t0 float64) *archive.Operation {
		return &archive.Operation{
			ID: id, Mission: "LocalSuperstep", Actor: worker, Start: t0, End: t0 + 2,
			Children: []*archive.Operation{
				{ID: id + "-pre", Mission: "PreStep", Actor: worker, Start: t0, End: t0 + 0.2},
				{ID: id + "-c", Mission: "Compute", Actor: worker, Start: t0 + 0.2, End: t0 + 1.5},
				{ID: id + "-m", Mission: "Message", Actor: worker, Start: t0 + 1.5, End: t0 + 1.7},
				{ID: id + "-post", Mission: "PostStep", Actor: worker, Start: t0 + 1.7, End: t0 + 2},
			},
		}
	}
	j := &archive.Job{
		ID: "g", Platform: "Giraph",
		Root: &archive.Operation{
			ID: "r", Mission: "GiraphJob", Actor: "GiraphClient", Start: 0, End: 10,
			Children: []*archive.Operation{
				{ID: "s", Mission: "Startup", Start: 0, End: 1},
				{ID: "l", Mission: "LoadGraph", Start: 1, End: 3},
				{ID: "p", Mission: "ProcessGraph", Start: 3, End: 8, Children: []*archive.Operation{
					{ID: "ss0", Mission: "Superstep", Start: 3, End: 5, Children: []*archive.Operation{
						mkLocal("w0s0", "GiraphWorker-0", 3),
						mkLocal("w1s0", "GiraphWorker-1", 3),
					}},
					{ID: "ss1", Mission: "Superstep", Start: 5, End: 8, Children: []*archive.Operation{
						mkLocal("w0s1", "GiraphWorker-0", 5),
						mkLocal("w1s1", "GiraphWorker-1", 5.5),
					}},
				}},
				{ID: "o", Mission: "OffloadGraph", Start: 8, End: 9},
				{ID: "c", Mission: "Cleanup", Start: 9, End: 10},
			},
		},
		EnvSamples: []archive.EnvSample{
			{Time: 1, Node: "node1", Kind: "cpu", Used: 2},
			{Time: 1, Node: "node2", Kind: "cpu", Used: 1},
			{Time: 2, Node: "node1", Kind: "cpu", Used: 4},
			{Time: 2, Node: "node2", Kind: "cpu", Used: 2},
		},
	}
	return j
}

func TestOperationTree(t *testing.T) {
	out := OperationTree(ganttJob())
	for _, want := range []string{"GiraphJob", "ProcessGraph", "Superstep", "Compute"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tree missing %q:\n%s", want, out)
		}
	}
}

func TestBreakdownBar(t *testing.T) {
	out, err := BreakdownBar(ganttJob(), 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"setup (s)", "input/output (i)", "processing (p)", "total 10.00s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("breakdown missing %q:\n%s", want, out)
		}
	}
	// The bar must contain all three category characters.
	for _, ch := range []string{"s", "i", "p"} {
		if !strings.Contains(out, ch) {
			t.Fatalf("bar missing category %q", ch)
		}
	}
	if _, err := BreakdownBar(&archive.Job{ID: "x"}, 50); err == nil {
		t.Fatal("expected error for job without root")
	}
}

func TestCPUSeries(t *testing.T) {
	nodes, times, values := cpuSeries(ganttJob())
	if len(nodes) != 2 || nodes[0] != "node1" {
		t.Fatalf("nodes = %v", nodes)
	}
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Fatalf("times = %v", times)
	}
	if values["node1"][1] != 4 {
		t.Fatalf("values = %v", values)
	}
}

func TestCPUTimeline(t *testing.T) {
	out := CPUTimeline(ganttJob(), 10, 30)
	if !strings.Contains(out, "peak 6.00") {
		t.Fatalf("timeline missing peak:\n%s", out)
	}
	// Samples at t=1,2 fall in Startup and LoadGraph.
	if !strings.Contains(out, "Startup") || !strings.Contains(out, "LoadGraph") {
		t.Fatalf("timeline missing phase annotations:\n%s", out)
	}
	// Empty job is safe.
	empty := CPUTimeline(&archive.Job{ID: "x", Root: &archive.Operation{ID: "r"}}, 5, 10)
	if !strings.Contains(empty, "0 samples") {
		t.Fatalf("empty timeline = %q", empty)
	}
}

func TestWorkerGantt(t *testing.T) {
	out := WorkerGantt(ganttJob(), 60, 1, 0) // from > to: all supersteps
	if !strings.Contains(out, "GiraphWorker-0") || !strings.Contains(out, "GiraphWorker-1") {
		t.Fatalf("gantt missing workers:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Fatalf("gantt missing compute glyph:\n%s", out)
	}
	// Window selection works.
	windowed := WorkerGantt(ganttJob(), 60, 1, 1)
	if !strings.Contains(windowed, "supersteps 1..1") {
		t.Fatalf("windowed gantt header wrong:\n%s", windowed)
	}
	// Job without supersteps.
	none := WorkerGantt(&archive.Job{ID: "x", Root: &archive.Operation{ID: "r", Mission: "Job"}}, 60, 1, 0)
	if !strings.Contains(none, "no supersteps") {
		t.Fatalf("expected no-supersteps message, got %q", none)
	}
}

func TestSuperstepImbalance(t *testing.T) {
	im := SuperstepImbalance(ganttJob())
	if len(im) != 2 {
		t.Fatalf("imbalance entries = %d", len(im))
	}
	// Superstep 0: both computes 1.3s -> ratio 1.
	if im[0].Ratio < 0.99 || im[0].Ratio > 1.01 {
		t.Fatalf("superstep 0 ratio = %v, want ~1", im[0].Ratio)
	}
	if im[0].Min <= 0 || im[0].Max < im[0].Min {
		t.Fatalf("imbalance stats wrong: %+v", im[0])
	}
}

func TestSVGOutputsWellFormed(t *testing.T) {
	j := ganttJob()
	for name, svg := range map[string]string{
		"breakdown": SVGBreakdown(j),
		"cpu":       SVGCPUChart(j),
		"gantt":     SVGWorkerGantt(j, 1, 0),
	} {
		if !strings.HasPrefix(svg, "<svg") || !strings.Contains(svg, "</svg>") {
			t.Fatalf("%s: not an svg document", name)
		}
		if strings.Count(svg, "<svg") != 1 {
			t.Fatalf("%s: nested svg", name)
		}
	}
	// Escaping: hostile mission names must not break markup.
	j.Root.Children[0].Mission = `<script>"x"&`
	svg := SVGBreakdown(j)
	if strings.Contains(svg, "<script>") {
		t.Fatal("svg does not escape mission names")
	}
}

func TestSVGBreakdownComparison(t *testing.T) {
	a := ganttJob()
	b := ganttJob()
	b.ID, b.Platform = "g2", "PowerGraph"
	svg := SVGBreakdownComparison([]*archive.Job{a, b})
	if !strings.HasPrefix(svg, "<svg") || !strings.Contains(svg, "</svg>") {
		t.Fatal("not an svg document")
	}
	for _, want := range []string{"Job decomposition comparison", "Giraph", "PowerGraph", "g2"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("comparison missing %q", want)
		}
	}
	// A job without a root is skipped without panicking.
	_ = SVGBreakdownComparison([]*archive.Job{{ID: "empty"}})
}

func TestHTMLReport(t *testing.T) {
	a := archive.New()
	a.Add(ganttJob())
	out := HTMLReport(a)
	for _, want := range []string{"<!DOCTYPE html>", "Granula performance report", "Job g", "<svg", "</html>"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
	// Infos rendered in the table.
	if !strings.Contains(out, "GiraphWorker-0") {
		t.Fatal("report missing worker rows")
	}
}
