package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/regression"
)

// diffCmd compares two performance archives job by job and reports
// per-operation regressions — the paper's vision of performance
// analysis as part of standard software-engineering practice. It exits
// 0 when every comparable job passed (improvements, added and removed
// operations do not fail a run) and 1 on any regression.
func diffCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) int {
	baselinePath := fs.String("baseline", "", "baseline archive JSON (required)")
	currentPath := fs.String("current", "", "current archive JSON (required)")
	jobID := fs.String("job", "", "compare only this job ID (default: every job present in both)")
	threshold := fs.Float64("threshold", 0.10, "relative duration change that counts as a regression")
	minSeconds := fs.Float64("min-seconds", 0.05, "ignore operations shorter than this in both runs")
	return func(stdout, stderr io.Writer) int {
		if *baselinePath == "" || *currentPath == "" {
			return errorf(stderr, "usage: granula diff -baseline <file> -current <file> [-job <id>] [-threshold 0.10]")
		}
		baseline, err := loadArchive(*baselinePath)
		if err != nil {
			return errorf(stderr, "%v", err)
		}
		current, err := loadArchive(*currentPath)
		if err != nil {
			return errorf(stderr, "%v", err)
		}

		th := regression.Thresholds{RelativeChange: *threshold, MinSeconds: *minSeconds}
		verdict := exitOK
		compared := 0
		for _, cur := range current.Jobs {
			if *jobID != "" && cur.ID != *jobID {
				continue
			}
			base := baseline.Job(cur.ID)
			if base == nil {
				fmt.Fprintf(stdout, "job %s: no baseline, skipping\n", cur.ID)
				continue
			}
			report, err := regression.Compare(base, cur, th)
			if err != nil {
				return errorf(stderr, "compare %s: %v", cur.ID, err)
			}
			fmt.Fprintf(stdout, "%s\n", report.Render())
			compared++
			if !report.Pass() {
				verdict = exitFinding
			}
		}
		if compared == 0 {
			return errorf(stderr, "no comparable jobs between the two archives")
		}
		return verdict
	}
}
