// Package viz implements Granula's visualization sub-process (P4): it
// renders archived performance results into human-readable visuals — text
// charts for terminals, SVG for reports, and a self-contained HTML report.
// The three chart families reproduce the paper's figure types: domain-level
// job decomposition bars (Figure 5), per-node CPU timelines mapped to
// operations (Figures 6-7), and per-worker superstep Gantt charts
// (Figure 8).
package viz

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/archive"
	"repro/internal/core"
)

// OperationTree renders a job's operation tree with durations, one line
// per operation.
func OperationTree(job *archive.Job) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Job %s (%s)\n", job.ID, job.Platform)
	if job.Root == nil {
		return sb.String()
	}
	var walk func(op *archive.Operation, indent string)
	walk = func(op *archive.Operation, indent string) {
		fmt.Fprintf(&sb, "%s%s [%s] %.3fs (%.3f – %.3f)\n",
			indent, op.Mission, op.Actor, op.Duration(), op.Start, op.End)
		for _, c := range op.Children {
			walk(c, indent+"  ")
		}
	}
	walk(job.Root, "")
	return sb.String()
}

// BreakdownBar renders the domain-level decomposition of a job as a
// labeled percentage bar (the paper's Figure 5), using one character
// class per category: 's' setup, 'i' input/output, 'p' processing.
func BreakdownBar(job *archive.Job, width int) (string, error) {
	if width < 10 {
		width = 60
	}
	b, err := core.DomainBreakdown(job)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (%s): total %.2fs\n", job.ID, job.Platform, b.Total)
	// Draw the categories in job order: each domain child contributes a
	// run of its category's character, proportional to duration.
	var bar strings.Builder
	for _, child := range job.Root.Children {
		var ch byte
		switch child.Mission {
		case "Startup", "Cleanup":
			ch = 's'
		case "LoadGraph", "OffloadGraph":
			ch = 'i'
		case "ProcessGraph":
			ch = 'p'
		default:
			continue
		}
		n := int(math.Round(child.Duration() / b.Total * float64(width)))
		bar.WriteString(strings.Repeat(string(ch), n))
	}
	fmt.Fprintf(&sb, "  [%s]\n", bar.String())
	fmt.Fprintf(&sb, "  setup (s): %.1f%%   input/output (i): %.1f%%   processing (p): %.1f%%\n",
		b.SetupPercent(), b.IOPercent(), b.ProcessingPercent())
	return sb.String(), nil
}

// cpuSeries extracts per-node CPU series from a job's environment
// samples, bucketed at the sampling interval: it returns sorted node
// names, sorted sample times, and values[node][timeIndex].
func cpuSeries(job *archive.Job) (nodes []string, times []float64, values map[string][]float64) {
	return resourceSeries(job, "cpu")
}

// resourceSeries extracts per-node series for one resource kind ("cpu",
// "disk", "nic"; the shared filesystem reports as node "sharedfs" under
// kind "disk"). An empty sample kind counts as "cpu" for archives written
// before multi-resource monitoring.
func resourceSeries(job *archive.Job, kind string) (nodes []string, times []float64, values map[string][]float64) {
	match := func(s archive.EnvSample) bool {
		if kind == "cpu" {
			return s.IsCPU()
		}
		return s.Kind == kind
	}
	nodeSet := map[string]bool{}
	timeSet := map[float64]bool{}
	for _, s := range job.EnvSamples {
		if !match(s) {
			continue
		}
		nodeSet[s.Node] = true
		timeSet[s.Time] = true
	}
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for t := range timeSet {
		times = append(times, t)
	}
	sort.Float64s(times)
	idx := map[float64]int{}
	for i, t := range times {
		idx[t] = i
	}
	values = map[string][]float64{}
	for _, n := range nodes {
		values[n] = make([]float64, len(times))
	}
	for _, s := range job.EnvSamples {
		if match(s) {
			values[s.Node][idx[s.Time]] = s.Used
		}
	}
	return nodes, times, values
}

// CPUTimeline renders the cumulative per-node CPU usage over time as a
// horizontal text chart with each sample annotated by the domain-level
// operation active at that instant — the textual form of Figures 6-7.
// rows caps the number of printed sample rows (the series is downsampled
// evenly); width scales the bars.
func CPUTimeline(job *archive.Job, rows, width int) string {
	if rows <= 0 {
		rows = 40
	}
	if width <= 0 {
		width = 50
	}
	nodes, times, values := cpuSeries(job)
	var sb strings.Builder
	fmt.Fprintf(&sb, "CPU utilization, %s (%s): %d nodes, %d samples\n",
		job.ID, job.Platform, len(nodes), len(times))
	if len(times) == 0 {
		return sb.String()
	}
	totals := make([]float64, len(times))
	peak := 0.0
	for i := range times {
		for _, n := range nodes {
			totals[i] += values[n][i]
		}
		if totals[i] > peak {
			peak = totals[i]
		}
	}
	fmt.Fprintf(&sb, "peak %.2f CPU-seconds/interval (all nodes)\n", peak)
	step := 1
	if len(times) > rows {
		step = (len(times) + rows - 1) / rows
	}
	for i := 0; i < len(times); i += step {
		frac := 0.0
		if peak > 0 {
			frac = totals[i] / peak
		}
		bar := strings.Repeat("#", int(math.Round(frac*float64(width))))
		fmt.Fprintf(&sb, "%8.1fs |%-*s| %7.2f  %s\n",
			times[i], width, bar, totals[i], domainPhaseAt(job, times[i]))
	}
	return sb.String()
}

// domainPhaseAt names the domain-level operation active at time t.
func domainPhaseAt(job *archive.Job, t float64) string {
	if job.Root == nil {
		return ""
	}
	for _, child := range job.Root.Children {
		if child.Start <= t && t <= child.End {
			return child.Mission
		}
	}
	return ""
}

// WorkerGantt renders the per-worker breakdown of the job's supersteps —
// the paper's Figure 8. Each worker is a lane; within each superstep,
// PreStep time prints as '.', Compute as '#', Message as '+', and
// PostStep as '-'. Only the [from, to] window of supersteps is drawn
// (inclusive, 0-indexed; pass from > to for all).
func WorkerGantt(job *archive.Job, width, from, to int) string {
	steps := job.Find(job.Root.Mission, "ProcessGraph", "Superstep")
	if len(steps) == 0 {
		// PowerGraph-style jobs use Iteration.
		steps = job.Find(job.Root.Mission, "ProcessGraph", "Iteration")
	}
	if len(steps) == 0 {
		return "no supersteps found\n"
	}
	if from > to {
		from, to = 0, len(steps)-1
	}
	if from < 0 {
		from = 0
	}
	if to >= len(steps) {
		to = len(steps) - 1
	}
	steps = steps[from : to+1]
	if width <= 0 {
		width = 100
	}
	window0 := steps[0].Start
	window1 := steps[len(steps)-1].End
	span := window1 - window0
	if span <= 0 {
		return "empty superstep window\n"
	}

	// Collect worker lanes from the local operations inside the window.
	laneOps := map[string][]*archive.Operation{}
	for _, step := range steps {
		for _, local := range step.Children {
			if local.Mission != "LocalSuperstep" && local.Mission != "LocalIteration" {
				continue
			}
			laneOps[local.Actor] = append(laneOps[local.Actor], local)
		}
	}
	workers := make([]string, 0, len(laneOps))
	for w := range laneOps {
		workers = append(workers, w)
	}
	sort.Strings(workers)

	glyphs := map[string]byte{
		"PreStep": '.', "Compute": '#', "Message": '+', "PostStep": '-',
		"Gather": '#', "Apply": '+', "Scatter": '-',
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Superstep Gantt, %s (%s): supersteps %d..%d, window %.2fs\n",
		job.ID, job.Platform, from, to, span)
	fmt.Fprintf(&sb, "legend: '.'=PreStep/sync-in  '#'=Compute/Gather  '+'=Message/Apply  '-'=PostStep/Scatter\n")
	for _, w := range workers {
		lane := make([]byte, width)
		for i := range lane {
			lane[i] = ' '
		}
		for _, local := range laneOps[w] {
			for _, phase := range local.Children {
				g, ok := glyphs[phase.Mission]
				if !ok {
					continue
				}
				lo := int((phase.Start - window0) / span * float64(width))
				hi := int((phase.End - window0) / span * float64(width))
				if hi == lo {
					hi = lo + 1
				}
				for i := lo; i < hi && i < width; i++ {
					if i >= 0 {
						lane[i] = g
					}
				}
			}
		}
		fmt.Fprintf(&sb, "%-20s |%s|\n", w, string(lane))
	}
	return sb.String()
}

// ComputeImbalance summarizes, per superstep, the min/max/mean Compute
// duration across workers and the imbalance ratio max/mean — the numbers
// behind Figure 8's visual skew.
type ComputeImbalance struct {
	Superstep int
	Min, Max  float64
	Mean      float64
	Ratio     float64
}

// SuperstepImbalance computes per-superstep compute imbalance for
// Pregel-style jobs.
func SuperstepImbalance(job *archive.Job) []ComputeImbalance {
	steps := job.Find(job.Root.Mission, "ProcessGraph", "Superstep")
	var out []ComputeImbalance
	for i, step := range steps {
		var durs []float64
		for _, local := range step.ChildrenByMission("LocalSuperstep") {
			for _, phase := range local.ChildrenByMission("Compute") {
				durs = append(durs, phase.Duration())
			}
		}
		if len(durs) == 0 {
			continue
		}
		im := ComputeImbalance{Superstep: i, Min: math.Inf(1)}
		sum := 0.0
		for _, d := range durs {
			if d < im.Min {
				im.Min = d
			}
			if d > im.Max {
				im.Max = d
			}
			sum += d
		}
		im.Mean = sum / float64(len(durs))
		if im.Mean > 0 {
			im.Ratio = im.Max / im.Mean
		}
		out = append(out, im)
	}
	return out
}
