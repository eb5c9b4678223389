// Package regression implements the performance-regression testing the
// paper envisions as part of standard software-engineering practice:
// compare the archive of a current job run against a baseline archive of
// the same job and flag operations whose durations moved beyond a
// threshold. Because archives are standardized (requirement R2), the
// comparison is purely structural — no knowledge of the platform is
// needed beyond its performance model.
//
// Matching: operations are identified by their mission path from the
// root, their actor, and their occurrence index among identical siblings,
// which is stable for deterministic platforms and meaningful for
// repeatable operations like supersteps.
package regression

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/archive"
)

// Thresholds define what counts as a regression.
type Thresholds struct {
	// RelativeChange flags operations whose duration changed by more
	// than this fraction (e.g. 0.10 = ±10%); 0 selects 0.10.
	RelativeChange float64
	// MinSeconds ignores operations whose durations are below this in
	// both runs (noise floor); 0 selects 0.05s.
	MinSeconds float64
}

// Verdict classifies one finding.
type Verdict string

// Finding verdicts.
const (
	verdictRegression  Verdict = "regression"
	verdictImprovement Verdict = "improvement"
	verdictAdded       Verdict = "added"
	verdictRemoved     Verdict = "removed"
)

// Finding is one flagged difference.
type Finding struct {
	// Key is the operation's stable identity (path, actor, occurrence).
	Key string
	// Mission is the operation type.
	Mission string
	// Baseline and Current are the durations in seconds (0 when the
	// operation exists on one side only).
	Baseline float64
	Current  float64
	// Change is (Current-Baseline)/Baseline; ±Inf for added/removed.
	Change  float64
	Verdict Verdict
}

// Report is a completed comparison.
type Report struct {
	JobID            string
	BaselineMakespan float64
	CurrentMakespan  float64
	// MakespanChange is the relative end-to-end change.
	MakespanChange float64
	// Findings are ordered by absolute impact (|current-baseline|).
	Findings []Finding
}

// Pass reports whether the comparison found no regressions (improvements,
// additions, and removals do not fail a run by themselves).
func (r *Report) Pass() bool {
	for _, f := range r.Findings {
		if f.Verdict == verdictRegression {
			return false
		}
	}
	return true
}

// key builds the stable identity of an operation.
func key(op *archive.Operation, occurrence int) string {
	return fmt.Sprintf("%s @%s #%d", strings.Join(op.Path(), "/"), op.Actor, occurrence)
}

// index flattens a job into identity → duration. The root itself is
// excluded: its change is the makespan change, reported separately.
func index(job *archive.Job) map[string]*archive.Operation {
	out := map[string]*archive.Operation{}
	seen := map[string]int{}
	if job.Root == nil {
		return out
	}
	job.Root.Walk(func(op *archive.Operation) {
		if op == job.Root {
			return
		}
		base := fmt.Sprintf("%s @%s", strings.Join(op.Path(), "/"), op.Actor)
		occ := seen[base]
		seen[base] = occ + 1
		out[key(op, occ)] = op
	})
	return out
}

// Compare diffs the current run of a job against its baseline.
func Compare(baseline, current *archive.Job, th Thresholds) (*Report, error) {
	if baseline.Root == nil || current.Root == nil {
		return nil, fmt.Errorf("regression: both jobs need operations")
	}
	if th.RelativeChange <= 0 {
		th.RelativeChange = 0.10
	}
	if th.MinSeconds <= 0 {
		th.MinSeconds = 0.05
	}
	r := &Report{
		JobID:            current.ID,
		BaselineMakespan: baseline.Root.Duration(),
		CurrentMakespan:  current.Root.Duration(),
	}
	if r.BaselineMakespan > 0 {
		r.MakespanChange = (r.CurrentMakespan - r.BaselineMakespan) / r.BaselineMakespan
	}
	base := index(baseline)
	cur := index(current)

	keys := make([]string, 0, len(base)+len(cur))
	for k := range base {
		keys = append(keys, k)
	}
	for k := range cur {
		if _, ok := base[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	for _, k := range keys {
		b, inBase := base[k]
		c, inCur := cur[k]
		switch {
		case inBase && !inCur:
			if b.Duration() < th.MinSeconds {
				continue
			}
			r.Findings = append(r.Findings, Finding{
				Key: k, Mission: b.Mission, Baseline: b.Duration(), Verdict: verdictRemoved, Change: -1,
			})
		case !inBase && inCur:
			if c.Duration() < th.MinSeconds {
				continue
			}
			r.Findings = append(r.Findings, Finding{
				Key: k, Mission: c.Mission, Current: c.Duration(), Verdict: verdictAdded, Change: 1,
			})
		default:
			bd, cd := b.Duration(), c.Duration()
			if bd < th.MinSeconds && cd < th.MinSeconds {
				continue
			}
			if bd == 0 {
				continue
			}
			change := (cd - bd) / bd
			if change > th.RelativeChange {
				r.Findings = append(r.Findings, Finding{
					Key: k, Mission: c.Mission, Baseline: bd, Current: cd,
					Change: change, Verdict: verdictRegression,
				})
			} else if change < -th.RelativeChange {
				r.Findings = append(r.Findings, Finding{
					Key: k, Mission: c.Mission, Baseline: bd, Current: cd,
					Change: change, Verdict: verdictImprovement,
				})
			}
		}
	}
	sort.SliceStable(r.Findings, func(i, j int) bool {
		di := abs(r.Findings[i].Current - r.Findings[i].Baseline)
		dj := abs(r.Findings[j].Current - r.Findings[j].Baseline)
		return di > dj
	})
	return r, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Render formats the report for terminals.
func (r *Report) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Regression report for %s\n", r.JobID)
	fmt.Fprintf(&sb, "makespan: baseline %.2fs → current %.2fs (%+.1f%%)\n",
		r.BaselineMakespan, r.CurrentMakespan, 100*r.MakespanChange)
	if len(r.Findings) == 0 {
		sb.WriteString("no operations changed beyond the thresholds\n")
		return sb.String()
	}
	for _, f := range r.Findings {
		switch f.Verdict {
		case verdictAdded:
			fmt.Fprintf(&sb, "  [added]       %-50s now %.2fs\n", f.Key, f.Current)
		case verdictRemoved:
			fmt.Fprintf(&sb, "  [removed]     %-50s was %.2fs\n", f.Key, f.Baseline)
		default:
			fmt.Fprintf(&sb, "  [%-11s] %-50s %.2fs → %.2fs (%+.1f%%)\n",
				f.Verdict, f.Key, f.Baseline, f.Current, 100*f.Change)
		}
	}
	if r.Pass() {
		sb.WriteString("PASS: no regressions\n")
	} else {
		sb.WriteString("FAIL: regressions found\n")
	}
	return sb.String()
}
