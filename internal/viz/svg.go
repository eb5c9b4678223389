package viz

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/archive"
	"repro/internal/core"
)

// This file renders the figure families as standalone SVG documents.
// Everything is plain stdlib string building; colors follow a fixed
// palette keyed by mission.

var missionColors = map[string]string{
	"Startup":      "#8c8c8c",
	"Cleanup":      "#bdbdbd",
	"LoadGraph":    "#e6873c",
	"OffloadGraph": "#e8b23c",
	"ProcessGraph": "#4d8edc",
	"PreStep":      "#c9c9c9",
	"Compute":      "#68b7dc",
	"Message":      "#4d8edc",
	"PostStep":     "#9a9a9a",
	"Gather":       "#68b7dc",
	"Apply":        "#4d8edc",
	"Scatter":      "#9a9a9a",
}

func colorFor(mission string) string {
	if c, ok := missionColors[mission]; ok {
		return c
	}
	return "#cccccc"
}

func svgHeader(sb *strings.Builder, w, h int, title string) {
	fmt.Fprintf(sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`, w, h, w, h)
	sb.WriteString("\n")
	fmt.Fprintf(sb, `<rect width="%d" height="%d" fill="white"/>`, w, h)
	sb.WriteString("\n")
	fmt.Fprintf(sb, `<text x="10" y="18" font-family="sans-serif" font-size="14" font-weight="bold">%s</text>`, escape(title))
	sb.WriteString("\n")
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// SVGBreakdown renders the domain-level decomposition as a horizontal
// stacked bar (Figure 5's form).
func SVGBreakdown(job *archive.Job) string {
	const w, h = 720, 120
	var sb strings.Builder
	svgHeader(&sb, w, h, fmt.Sprintf("Job decomposition — %s (%s)", job.ID, job.Platform))
	if job.Root == nil || job.Root.Duration() <= 0 {
		sb.WriteString("</svg>\n")
		return sb.String()
	}
	total := job.Root.Duration()
	x := 20.0
	barW := float64(w - 40)
	y, barH := 40, 30
	for _, child := range job.Root.Children {
		frac := child.Duration() / total
		width := frac * barW
		fmt.Fprintf(&sb, `<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s"><title>%s: %.2fs (%.1f%%)</title></rect>`,
			x, y, width, barH, colorFor(child.Mission), escape(child.Mission), child.Duration(), 100*frac)
		sb.WriteString("\n")
		if frac > 0.06 {
			fmt.Fprintf(&sb, `<text x="%.1f" y="%d" font-family="sans-serif" font-size="10" fill="black">%s</text>`,
				x+2, y+barH+14, escape(child.Mission))
			sb.WriteString("\n")
		}
		x += width
	}
	fmt.Fprintf(&sb, `<text x="20" y="%d" font-family="sans-serif" font-size="11">total %.2fs</text>`, h-10, total)
	sb.WriteString("\n</svg>\n")
	return sb.String()
}

// SVGBreakdownComparison renders several jobs' domain-level decompositions
// as aligned percentage bars — the composite form of the paper's Figure 5,
// which shows Giraph and PowerGraph side by side.
func SVGBreakdownComparison(jobs []*archive.Job) string {
	const w = 720
	const rowH, top = 64, 30
	h := top + rowH*len(jobs) + 20
	var sb strings.Builder
	svgHeader(&sb, w, h, "Job decomposition comparison (percent of each job's makespan)")
	for ji, job := range jobs {
		y := top + ji*rowH
		if job.Root == nil || job.Root.Duration() <= 0 {
			continue
		}
		total := job.Root.Duration()
		fmt.Fprintf(&sb, `<text x="20" y="%d" font-family="sans-serif" font-size="11">%s (%s) — %.2fs</text>`,
			y+12, escape(job.ID), escape(job.Platform), total)
		sb.WriteString("\n")
		x := 20.0
		barW := float64(w - 40)
		for _, child := range job.Root.Children {
			frac := child.Duration() / total
			width := frac * barW
			fmt.Fprintf(&sb, `<rect x="%.1f" y="%d" width="%.1f" height="24" fill="%s"><title>%s: %.2fs (%.1f%%)</title></rect>`,
				x, y+18, width, colorFor(child.Mission), escape(child.Mission), child.Duration(), 100*frac)
			sb.WriteString("\n")
			x += width
		}
	}
	sb.WriteString("</svg>\n")
	return sb.String()
}

// SVGCPUChart renders per-node CPU usage over time as a stacked area
// chart with domain-operation bands (Figures 6-7's form).
func SVGCPUChart(job *archive.Job) string {
	const w, h = 760, 320
	const left, right, top, bottom = 50, 20, 30, 40
	plotW, plotH := float64(w-left-right), float64(h-top-bottom)
	var sb strings.Builder
	svgHeader(&sb, w, h, fmt.Sprintf("CPU utilization — %s (%s)", job.ID, job.Platform))
	nodes, times, values := cpuSeries(job)
	if len(times) == 0 {
		sb.WriteString("</svg>\n")
		return sb.String()
	}
	tMax := times[len(times)-1]
	// Stacked cumulative series.
	stack := make([][]float64, len(nodes)+1)
	stack[0] = make([]float64, len(times))
	peak := 0.0
	for ni, n := range nodes {
		stack[ni+1] = make([]float64, len(times))
		for ti := range times {
			stack[ni+1][ti] = stack[ni][ti] + values[n][ti]
			if stack[ni+1][ti] > peak {
				peak = stack[ni+1][ti]
			}
		}
	}
	if peak == 0 {
		peak = 1
	}
	xAt := func(t float64) float64 { return left + t/tMax*plotW }
	yAt := func(v float64) float64 { return top + plotH - v/peak*plotH }

	// Domain bands.
	for _, child := range job.Root.Children {
		fmt.Fprintf(&sb, `<rect x="%.1f" y="%d" width="%.1f" height="%.1f" fill="%s" opacity="0.15"><title>%s</title></rect>`,
			xAt(child.Start), top, xAt(child.End)-xAt(child.Start), plotH, colorFor(child.Mission), escape(child.Mission))
		sb.WriteString("\n")
	}
	// One band per node, stacked.
	palette := []string{"#4d8edc", "#e6873c", "#5cb85c", "#d9534f", "#9b59b6", "#f0ad4e", "#38b6b6", "#7f8c8d"}
	for ni, n := range nodes {
		var path strings.Builder
		for ti, t := range times {
			cmd := "L"
			if ti == 0 {
				cmd = "M"
			}
			fmt.Fprintf(&path, "%s%.1f,%.1f ", cmd, xAt(t), yAt(stack[ni+1][ti]))
		}
		for ti := len(times) - 1; ti >= 0; ti-- {
			fmt.Fprintf(&path, "L%.1f,%.1f ", xAt(times[ti]), yAt(stack[ni][ti]))
		}
		path.WriteString("Z")
		fmt.Fprintf(&sb, `<path d="%s" fill="%s" opacity="0.85"><title>%s</title></path>`,
			path.String(), palette[ni%len(palette)], escape(n))
		sb.WriteString("\n")
	}
	// Axes.
	fmt.Fprintf(&sb, `<line x1="%d" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black"/>`, left, top+plotH, left+plotW, top+plotH)
	fmt.Fprintf(&sb, `<line x1="%d" y1="%d" x2="%d" y2="%.1f" stroke="black"/>`, left, top, left, top+plotH)
	fmt.Fprintf(&sb, `<text x="%d" y="%d" font-family="sans-serif" font-size="10">0</text>`, left, h-bottom+14)
	fmt.Fprintf(&sb, `<text x="%.1f" y="%d" font-family="sans-serif" font-size="10">%.1fs</text>`, left+plotW-30, h-bottom+14, tMax)
	fmt.Fprintf(&sb, `<text x="4" y="%d" font-family="sans-serif" font-size="10">%.1f</text>`, top+10, peak)
	fmt.Fprintf(&sb, `<text x="4" y="%.1f" font-family="sans-serif" font-size="10">CPU/s</text>`, top+plotH/2)
	sb.WriteString("\n</svg>\n")
	return sb.String()
}

// SVGWorkerGantt renders the per-worker superstep Gantt chart (Figure 8's
// form) over the [from, to] superstep window (pass from > to for all).
func SVGWorkerGantt(job *archive.Job, from, to int) string {
	steps := core.Steps(job)
	var sb strings.Builder
	if len(steps) == 0 {
		svgHeader(&sb, 400, 60, "no supersteps")
		sb.WriteString("</svg>\n")
		return sb.String()
	}
	local := "Local" + steps[0].Mission
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
	window0, window1 := steps[0].Start, steps[len(steps)-1].End
	span := window1 - window0

	laneOps := map[string][]*archive.Operation{}
	for _, step := range steps {
		for _, l := range step.ChildrenByMission(local) {
			laneOps[l.Actor] = append(laneOps[l.Actor], l)
		}
	}
	workers := make([]string, 0, len(laneOps))
	for wkr := range laneOps {
		workers = append(workers, wkr)
	}
	sort.Strings(workers)

	const left, right, top, laneH, gap = 140, 20, 30, 22, 6
	w := 860
	h := top + len(workers)*(laneH+gap) + 40
	plotW := float64(w - left - right)
	svgHeader(&sb, w, h, fmt.Sprintf("Worker supersteps %d..%d — %s (%s)", from, to, job.ID, job.Platform))
	xAt := func(t float64) float64 { return left + (t-window0)/span*plotW }
	for wi, wkr := range workers {
		y := top + wi*(laneH+gap)
		fmt.Fprintf(&sb, `<text x="6" y="%d" font-family="sans-serif" font-size="11">%s</text>`, y+laneH-6, escape(wkr))
		sb.WriteString("\n")
		for _, l := range laneOps[wkr] {
			for _, phase := range l.Children {
				x0, x1 := xAt(phase.Start), xAt(phase.End)
				if x1-x0 < 0.5 {
					x1 = x0 + 0.5
				}
				fmt.Fprintf(&sb, `<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s"><title>%s %s: %.3fs</title></rect>`,
					x0, y, x1-x0, laneH, colorFor(phase.Mission), escape(wkr), escape(phase.Mission), phase.Duration())
				sb.WriteString("\n")
			}
		}
	}
	fmt.Fprintf(&sb, `<text x="%d" y="%d" font-family="sans-serif" font-size="10">%.2fs window</text>`, left, h-10, span)
	sb.WriteString("\n</svg>\n")
	return sb.String()
}
