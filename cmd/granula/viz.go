package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/chokepoint"
	"repro/internal/platforms"
	"repro/internal/viz"
)

// vizCmd renders one archived job as a text chart on stdout or, with
// -svg, as an SVG file; -report writes the HTML report of the whole
// archive. The chokepoints chart is the choke-point analysis of the job,
// with the capacities of the DAS5 cluster that granula run and the
// paper's jobs use.
func vizCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) int {
	archivePath := fs.String("archive", "", "archive JSON path (required)")
	jobID := fs.String("job", "", "job ID (defaults to the first job)")
	chart := fs.String("chart", "breakdown", "chart: breakdown, cpu, gantt, tree, chokepoints")
	svgPath := fs.String("svg", "", "write the chart as SVG to this file instead of text output")
	reportPath := fs.String("report", "", "write the full HTML report for the whole archive")
	width := fs.Int("width", 80, "text chart width")
	return func(stdout, stderr io.Writer) int {
		if *archivePath == "" {
			return errorf(stderr, "usage: granula viz -archive <file> [-job <id>] [-chart breakdown|cpu|gantt|tree|chokepoints] [-svg out.svg] [-report out.html]")
		}
		a, err := loadArchive(*archivePath)
		if err != nil {
			return errorf(stderr, "%v", err)
		}
		if *reportPath != "" {
			if err := writeString(*reportPath, viz.HTMLReport(a)); err != nil {
				return errorf(stderr, "write report: %v", err)
			}
			fmt.Fprintf(stdout, "report written to %s\n", *reportPath)
			return exitOK
		}
		job, err := pickJob(a, *jobID)
		if err != nil {
			return errorf(stderr, "%v", err)
		}

		if *svgPath != "" {
			var svg string
			switch *chart {
			case "breakdown":
				svg = viz.SVGBreakdown(job)
			case "cpu":
				svg = viz.SVGCPUChart(job)
			case "gantt":
				svg = viz.SVGWorkerGantt(job, 1, 0)
			default:
				return errorf(stderr, "chart %q has no SVG form", *chart)
			}
			if err := writeString(*svgPath, svg); err != nil {
				return errorf(stderr, "write svg: %v", err)
			}
			fmt.Fprintf(stdout, "svg written to %s\n", *svgPath)
			return exitOK
		}

		var out string
		switch *chart {
		case "breakdown":
			if out, err = viz.BreakdownBar(job, *width); err != nil {
				return errorf(stderr, "%v", err)
			}
		case "cpu":
			out = viz.CPUTimeline(job, 40, *width-30)
		case "gantt":
			out = viz.WorkerGantt(job, *width, 1, 0)
		case "tree":
			out = viz.OperationTree(job)
		case "chokepoints":
			cfg := platforms.DAS5Config()
			report, err := chokepoint.Analyze(job, chokepoint.Options{
				CPUCapacity:      float64(cfg.Nodes * cfg.CoresPerNode),
				DiskCapacity:     cfg.DiskBandwidth,
				SharedFSCapacity: cfg.SharedFSBandwidth,
			})
			if err != nil {
				return errorf(stderr, "chokepoint analysis: %v", err)
			}
			out = report.Render()
		default:
			return errorf(stderr, "unknown chart %q", *chart)
		}
		fmt.Fprint(stdout, out)
		return exitOK
	}
}
