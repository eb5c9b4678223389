// Package chokepoint implements the choke-point analysis the paper lists
// as Granula's next step: given an archived job, find where the time
// actually goes and why. Three analyses run over the operation tree and
// the environment samples:
//
//   - the blocking chain: the sequence of operations that, at every
//     instant, gate the job's completion (in a BSP job, the straggler at
//     each barrier), aggregated per mission into a critical-path profile;
//   - imbalance detection: task-parallel sibling operations whose
//     durations diverge (workers idling at barriers);
//   - resource characterization: for each domain operation, whether it is
//     CPU-saturated, partially busy, or idle (latency-bound) — the
//     distinction that separates "needs tuning" from "needs redesign".
//
// The output is a ranked list of choke-points with quantified impact and
// actionable descriptions.
package chokepoint

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/archive"
)

// Options tunes the analysis.
type Options struct {
	// CPUCapacity is the cluster's total CPU capacity in cpu-seconds per
	// second (nodes × cores); 0 disables saturation classification.
	CPUCapacity float64
	// DiskCapacity is the per-node local-disk bandwidth in bytes/second;
	// 0 disables disk-saturation classification.
	DiskCapacity float64
	// SharedFSCapacity is the shared filesystem server's aggregate
	// bandwidth in bytes/second; 0 disables its classification.
	SharedFSCapacity float64
	// SampleInterval is the environment monitor period backing the job's
	// samples; 0 selects 1.
	SampleInterval float64
	// ImbalanceThreshold flags sibling groups whose max/mean duration
	// exceeds it; 0 selects 1.25.
	ImbalanceThreshold float64
	// MinImpactSeconds drops findings affecting less than this much
	// makespan; 0 selects 1% of the makespan.
	MinImpactSeconds float64
}

// Segment is one stretch of the blocking chain: between Start and End,
// the named operation gated the job's completion.
type Segment struct {
	Op    *archive.Operation
	Start float64
	End   float64
}

// duration returns the segment length.
func (s Segment) duration() float64 { return s.End - s.Start }

// MissionShare aggregates blocking-chain time per mission.
type MissionShare struct {
	Mission string
	Seconds float64
	Percent float64
}

// Kind classifies a choke-point finding.
type Kind string

// Finding kinds.
const (
	kindDominant     Kind = "dominant-operation"
	kindImbalance    Kind = "imbalance"
	kindIdle         Kind = "latency-bound"
	kindSaturation   Kind = "cpu-saturated"
	kindSharedFSHot  Kind = "sharedfs-saturated"
	kindSingleLoader Kind = "single-node-hotspot"
)

// Finding is one ranked choke-point.
type Finding struct {
	Kind Kind
	// Mission names the affected operation type.
	Mission string
	// ImpactSeconds estimates how much makespan the choke-point accounts
	// for.
	ImpactSeconds float64
	// ImpactPercent is ImpactSeconds over the job makespan.
	ImpactPercent float64
	// Detail is a human-readable diagnosis.
	Detail string
}

// Report is a completed analysis.
type Report struct {
	JobID    string
	Makespan float64
	// Chain is the job's blocking chain at the finest archived level.
	Chain []Segment
	// ByMission is the chain aggregated per mission, largest first.
	ByMission []MissionShare
	// Findings are the ranked choke-points, largest impact first.
	Findings []Finding
}

// Analyze runs all analyses over the job.
func Analyze(job *archive.Job, opts Options) (*Report, error) {
	if job.Root == nil {
		return nil, fmt.Errorf("chokepoint: job %s has no operations", job.ID)
	}
	if opts.ImbalanceThreshold <= 0 {
		opts.ImbalanceThreshold = 1.25
	}
	if opts.SampleInterval <= 0 {
		opts.SampleInterval = 1
	}
	makespan := job.Root.Duration()
	if opts.MinImpactSeconds <= 0 {
		opts.MinImpactSeconds = makespan / 100
	}
	r := &Report{JobID: job.ID, Makespan: makespan}
	r.Chain = blockingChain(job.Root, job.Root.Start, job.Root.End)

	shares := map[string]float64{}
	for _, seg := range r.Chain {
		shares[seg.Op.Mission] += seg.duration()
	}
	for mission, secs := range shares {
		share := MissionShare{Mission: mission, Seconds: secs}
		if makespan > 0 {
			share.Percent = 100 * secs / makespan
		}
		r.ByMission = append(r.ByMission, share)
	}
	sort.Slice(r.ByMission, func(i, j int) bool {
		if r.ByMission[i].Seconds != r.ByMission[j].Seconds {
			return r.ByMission[i].Seconds > r.ByMission[j].Seconds
		}
		return r.ByMission[i].Mission < r.ByMission[j].Mission
	})

	r.Findings = append(r.Findings, dominantFindings(r, opts)...)
	r.Findings = append(r.Findings, imbalanceFindings(job, opts)...)
	r.Findings = append(r.Findings, resourceFindings(job, opts)...)
	r.Findings = append(r.Findings, ioFindings(job, opts)...)
	// Rank by impact; drop noise.
	kept := r.Findings[:0]
	for _, f := range r.Findings {
		if f.ImpactSeconds >= opts.MinImpactSeconds {
			kept = append(kept, f)
		}
	}
	r.Findings = kept
	sort.SliceStable(r.Findings, func(i, j int) bool {
		return r.Findings[i].ImpactSeconds > r.Findings[j].ImpactSeconds
	})
	return r, nil
}

// blockingChain computes, within [from, to] of op's interval, the
// sequence of descendants gating completion: at every instant, among the
// children active at that instant, the one finishing last is the blocker
// (in barrier-synchronized systems the straggler determines progress);
// time covered by no child is attributed to op itself.
func blockingChain(op *archive.Operation, from, to float64) []Segment {
	var out []Segment
	t := from
	children := op.Children
	for t < to {
		// The active child with the latest end blocks; ties by ID for
		// determinism.
		var blocker *archive.Operation
		for _, c := range children {
			if c.Start <= t && c.End > t {
				if blocker == nil || c.End > blocker.End ||
					(c.End == blocker.End && c.ID < blocker.ID) {
					blocker = c
				}
			}
		}
		if blocker == nil {
			// Self time until the next child starts (or the window ends).
			next := to
			for _, c := range children {
				if c.Start > t && c.Start < next {
					next = c.Start
				}
			}
			out = append(out, Segment{Op: op, Start: t, End: next})
			t = next
			continue
		}
		end := blocker.End
		if end > to {
			end = to
		}
		out = append(out, blockingChain(blocker, t, end)...)
		t = end
	}
	return out
}

func dominantFindings(r *Report, opts Options) []Finding {
	var out []Finding
	for _, share := range r.ByMission {
		if share.Percent < 20 {
			continue
		}
		out = append(out, Finding{
			Kind:          kindDominant,
			Mission:       share.Mission,
			ImpactSeconds: share.Seconds,
			ImpactPercent: share.Percent,
			Detail: fmt.Sprintf("%s operations gate %.1f%% of the job's completion (%.2fs of %.2fs)",
				share.Mission, share.Percent, share.Seconds, r.Makespan),
		})
	}
	return out
}

// imbalanceFindings flags task-parallel sibling groups (same mission,
// same parent, distinct actors) whose max duration exceeds the mean by
// the threshold. The impact is the straggler's excess over the mean —
// the time the other actors spent waiting.
func imbalanceFindings(job *archive.Job, opts Options) []Finding {
	impact := map[string]float64{}
	worst := map[string]float64{}
	job.Root.Walk(func(op *archive.Operation) {
		groups := map[string][]*archive.Operation{}
		for _, c := range op.Children {
			groups[c.Mission] = append(groups[c.Mission], c)
		}
		for mission, ops := range groups {
			if len(ops) < 2 {
				continue
			}
			actors := map[string]bool{}
			var sum, max float64
			for _, o := range ops {
				actors[o.Actor] = true
				sum += o.Duration()
				if o.Duration() > max {
					max = o.Duration()
				}
			}
			if len(actors) < 2 {
				continue // repeats of one actor, not task parallelism
			}
			mean := sum / float64(len(ops))
			if mean <= 0 || max/mean < opts.ImbalanceThreshold {
				continue
			}
			impact[mission] += max - mean
			if max/mean > worst[mission] {
				worst[mission] = max / mean
			}
		}
	})
	var out []Finding
	for mission, secs := range impact {
		f := Finding{
			Kind:          kindImbalance,
			Mission:       mission,
			ImpactSeconds: secs,
			Detail: fmt.Sprintf("%s is imbalanced across actors (worst straggler %.2fx the mean); "+
				"peers idle ~%.2fs at synchronization points", mission, worst[mission], secs),
		}
		if job.Root.Duration() > 0 {
			f.ImpactPercent = 100 * secs / job.Root.Duration()
		}
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Mission < out[j].Mission })
	return out
}

// resourceFindings classifies each domain-level operation by its CPU
// profile: idle (latency-bound) or saturated.
func resourceFindings(job *archive.Job, opts Options) []Finding {
	if len(job.EnvSamples) == 0 {
		return nil
	}
	var out []Finding
	for _, op := range job.Root.Children {
		if op.Duration() <= 0 {
			continue
		}
		var used float64
		for _, s := range job.EnvSamples {
			if s.IsCPU() && s.Time > op.Start && s.Time <= op.End {
				used += s.Used
			}
		}
		rate := used / op.Duration()
		f := Finding{Mission: op.Mission, ImpactSeconds: op.Duration()}
		if job.Root.Duration() > 0 {
			f.ImpactPercent = 100 * op.Duration() / job.Root.Duration()
		}
		switch {
		case opts.CPUCapacity > 0 && rate >= 0.85*opts.CPUCapacity:
			f.Kind = kindSaturation
			f.Detail = fmt.Sprintf("%s runs CPU-saturated (%.1f of %.1f cpu-s/s): compute-bound — "+
				"more cores or cheaper per-unit work would help", op.Mission, rate, opts.CPUCapacity)
		case opts.CPUCapacity > 0 && rate <= 0.05*opts.CPUCapacity:
			f.Kind = kindIdle
			f.Detail = fmt.Sprintf("%s leaves the CPU idle (%.1f of %.1f cpu-s/s): latency-bound — "+
				"look at coordination, provisioning, or I/O waits", op.Mission, rate, opts.CPUCapacity)
		default:
			continue
		}
		out = append(out, f)
	}
	return out
}

// ioFindings classifies each domain-level operation's I/O profile from
// the disk and shared-filesystem samples: shared-FS saturation (the
// classic NFS bottleneck), and single-node hotspots where one node does
// nearly all the disk or CPU work while the others idle — the paper's
// PowerGraph loading diagnosis.
func ioFindings(job *archive.Job, opts Options) []Finding {
	if len(job.EnvSamples) == 0 {
		return nil
	}
	var out []Finding
	for _, op := range job.Root.Children {
		if op.Duration() <= 0 {
			continue
		}
		var sharedBytes float64
		perNodeCPU := map[string]float64{}
		for _, s := range job.EnvSamples {
			if s.Time <= op.Start || s.Time > op.End {
				continue
			}
			switch {
			case s.Node == "sharedfs" && s.Kind == "disk":
				sharedBytes += s.Used
			case s.IsCPU() && s.Node != "sharedfs":
				perNodeCPU[s.Node] += s.Used
			}
		}
		impact := op.Duration()
		pct := 0.0
		if job.Root.Duration() > 0 {
			pct = 100 * impact / job.Root.Duration()
		}
		if opts.SharedFSCapacity > 0 {
			rate := sharedBytes / op.Duration()
			if rate >= 0.7*opts.SharedFSCapacity {
				out = append(out, Finding{
					Kind: kindSharedFSHot, Mission: op.Mission,
					ImpactSeconds: impact, ImpactPercent: pct,
					Detail: fmt.Sprintf("%s keeps the shared filesystem at %.0f%% of its bandwidth "+
						"(%.2e of %.2e B/s): a central storage bottleneck",
						op.Mission, 100*rate/opts.SharedFSCapacity, rate, opts.SharedFSCapacity),
				})
			}
		}
		// Single-node hotspot: one node does >60% of the CPU work during
		// a long operation with at least 3 nodes reporting.
		if len(perNodeCPU) >= 3 {
			var total, max float64
			var hot string
			for n, v := range perNodeCPU {
				total += v
				if v > max {
					max, hot = v, n
				}
			}
			if total > 0 && max/total > 0.6 && pct >= 20 {
				out = append(out, Finding{
					Kind: kindSingleLoader, Mission: op.Mission,
					ImpactSeconds: impact, ImpactPercent: pct,
					Detail: fmt.Sprintf("%s runs almost entirely on %s (%.0f%% of all CPU during the "+
						"operation) while the other %d nodes idle — parallelize this stage",
						op.Mission, hot, 100*max/total, len(perNodeCPU)-1),
				})
			}
		}
	}
	return out
}

// Render formats the report for terminals.
func (r *Report) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Choke-point analysis of %s (makespan %.2fs)\n", r.JobID, r.Makespan)
	fmt.Fprintf(&sb, "\nBlocking-chain profile (who gates completion):\n")
	for _, s := range r.ByMission {
		fmt.Fprintf(&sb, "  %-20s %8.2fs  %5.1f%%\n", s.Mission, s.Seconds, s.Percent)
	}
	fmt.Fprintf(&sb, "\nRanked choke-points:\n")
	if len(r.Findings) == 0 {
		sb.WriteString("  none above the impact threshold\n")
	}
	for i, f := range r.Findings {
		fmt.Fprintf(&sb, "  %d. [%s] %s — impact %.2fs (%.1f%%)\n     %s\n",
			i+1, f.Kind, f.Mission, f.ImpactSeconds, f.ImpactPercent, f.Detail)
	}
	return sb.String()
}
