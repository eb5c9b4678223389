// Package metrics implements Granula's derivation rules: the part of the
// performance model that transforms raw recorded info into performance
// metrics (paper Section 3.3, P1 item 3). Rules are applied to an
// archived job and annotate its operations with derived infos, which the
// visualizer and the experiment harness then read.
package metrics

import (
	"math"
	"sort"
	"strconv"

	"repro/internal/archive"
	"repro/internal/core"
)

// Rule derives one metric for an operation. ok is false when the rule
// does not apply (e.g. missing inputs).
type Rule interface {
	// Name is the derived-info key the rule writes.
	Name() string
	// Derive computes the value for op within job.
	Derive(op *archive.Operation, job *archive.Job) (value string, ok bool)
}

// RuleSet groups rules applied to every operation (Global) and rules
// applied only to operations with a given mission (PerMission).
type RuleSet struct {
	Global     []Rule
	PerMission map[string][]Rule
}

// Apply runs the rule set over every operation of the job, writing
// derived infos in place.
func (rs *RuleSet) Apply(job *archive.Job) {
	if job.Root == nil {
		return
	}
	job.Root.Walk(func(op *archive.Operation) {
		for _, r := range rs.Global {
			if v, ok := r.Derive(op, job); ok {
				op.SetDerived(r.Name(), v)
			}
		}
		for _, r := range rs.PerMission[op.Mission] {
			if v, ok := r.Derive(op, job); ok {
				op.SetDerived(r.Name(), v)
			}
		}
	})
}

// durationRule derives the operation's wall time in seconds.
type durationRule struct{}

// Name implements Rule.
func (durationRule) Name() string { return "Duration" }

// Derive implements Rule.
func (durationRule) Derive(op *archive.Operation, _ *archive.Job) (string, bool) {
	return formatFloat(op.Duration()), true
}

// percentOfJob derives the operation's share of the job makespan.
type percentOfJob struct{}

// Name implements Rule.
func (percentOfJob) Name() string { return "PercentOfJob" }

// Derive implements Rule.
func (percentOfJob) Derive(op *archive.Operation, job *archive.Job) (string, bool) {
	total := job.Root.Duration()
	if total <= 0 {
		return "", false
	}
	return formatFloat(100 * op.Duration() / total), true
}

// childSum sums a recorded info over direct children with a mission.
type childSum struct {
	// Key is the derived-info name to write.
	Key string
	// Mission filters children ("" matches all).
	Mission string
	// Info is the recorded info to sum.
	Info string
}

// Name implements Rule.
func (r childSum) Name() string { return r.Key }

// Derive implements Rule.
func (r childSum) Derive(op *archive.Operation, _ *archive.Job) (string, bool) {
	sum := 0.0
	found := false
	for _, c := range op.Children {
		if r.Mission != "" && c.Mission != r.Mission {
			continue
		}
		if raw, ok := c.Infos[r.Info]; ok {
			v, err := strconv.ParseFloat(raw, 64)
			if err == nil {
				sum += v
				found = true
			}
		}
	}
	if !found {
		return "", false
	}
	return formatFloat(sum), true
}

// childCount counts direct children with a mission.
type childCount struct {
	Key     string
	Mission string
}

// Name implements Rule.
func (r childCount) Name() string { return r.Key }

// Derive implements Rule.
func (r childCount) Derive(op *archive.Operation, _ *archive.Job) (string, bool) {
	n := 0
	for _, c := range op.Children {
		if r.Mission == "" || c.Mission == r.Mission {
			n++
		}
	}
	if n == 0 {
		return "", false
	}
	return strconv.Itoa(n), true
}

// infoRate derives recorded-info units per second of operation time
// (e.g. bytes/s from BytesRead).
type infoRate struct {
	Key  string
	Info string
}

// Name implements Rule.
func (r infoRate) Name() string { return r.Key }

// Derive implements Rule.
func (r infoRate) Derive(op *archive.Operation, _ *archive.Job) (string, bool) {
	raw, ok := op.Infos[r.Info]
	if !ok || op.Duration() <= 0 {
		return "", false
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return "", false
	}
	return formatFloat(v / op.Duration()), true
}

// cpuDuring derives the total CPU time (cpu-seconds, all nodes) consumed
// during the operation's interval, from the job's environment samples —
// the mapping of resource usage to operations behind Figures 6 and 7.
//
// The rule is applied to every operation of a job, so a naive scan over
// all samples per operation is O(operations x samples) and dominates
// archive assembly on deep traces. Instead the rule lazily builds a
// CPU-only view of the job's samples (in slice order, which the monitor
// keeps time-ascending) and binary-searches each operation's (start, end]
// window. The window is summed left to right — the same additions in the
// same order as the full scan — so derived values are bit-identical.
type cpuDuring struct {
	job    *archive.Job
	times  []float64
	used   []float64
	sorted bool
}

// Name implements Rule.
func (r *cpuDuring) Name() string { return "CPUSeconds" }

// Derive implements Rule.
func (r *cpuDuring) Derive(op *archive.Operation, job *archive.Job) (string, bool) {
	if len(job.EnvSamples) == 0 {
		return "", false
	}
	if r.job != job {
		r.index(job)
	}
	total := 0.0
	if r.sorted {
		// A sample at time t covers (t-interval, t]; attribute it to the
		// operation containing its end point.
		lo := sort.Search(len(r.times), func(i int) bool { return r.times[i] > op.Start })
		hi := sort.Search(len(r.times), func(i int) bool { return r.times[i] > op.End })
		for _, u := range r.used[lo:hi] {
			total += u
		}
	} else {
		// Unsorted samples (hand-built jobs): match the window sample by
		// sample in slice order, as the pre-index implementation did.
		for i, t := range r.times {
			if t > op.Start && t <= op.End {
				total += r.used[i]
			}
		}
	}
	return formatFloat(total), true
}

// index extracts the CPU samples of job in slice order and records
// whether their times are non-decreasing (true for monitor-assembled
// jobs, which sort samples by time at assembly).
func (r *cpuDuring) index(job *archive.Job) {
	r.job = job
	r.times = r.times[:0]
	r.used = r.used[:0]
	r.sorted = true
	prev := math.Inf(-1)
	for _, s := range job.EnvSamples {
		if !s.IsCPU() {
			continue
		}
		if s.Time < prev {
			r.sorted = false
		}
		prev = s.Time
		r.times = append(r.times, s.Time)
		r.used = append(r.used, s.Used)
	}
}

// StandardRules returns the default rule set Granula applies to every
// archived job.
func StandardRules() *RuleSet {
	return &RuleSet{
		Global: []Rule{durationRule{}, percentOfJob{}, &cpuDuring{}},
		PerMission: map[string][]Rule{
			"ProcessGraph": {childCount{Key: "Supersteps", Mission: "Superstep"}},
			"Superstep": {
				childCount{Key: "Workers", Mission: "LocalSuperstep"},
			},
			"LoadHdfsData":    {infoRate{Key: "ReadThroughput", Info: "BytesRead"}},
			"OffloadHdfsData": {infoRate{Key: "WriteThroughput", Info: "BytesWritten"}},
			"SequentialLoad":  {infoRate{Key: "LoadThroughput", Info: "BytesLoaded"}},
		},
	}
}

// AnnotateDomainBreakdown computes the Ts/Td/Tp decomposition and writes
// it as derived infos on the job root (SetupSeconds, IOSeconds,
// ProcessingSeconds plus percentages).
func AnnotateDomainBreakdown(job *archive.Job) (core.Breakdown, error) {
	b, err := core.DomainBreakdown(job)
	if err != nil {
		return b, err
	}
	r := job.Root
	r.SetDerived("TotalSeconds", formatFloat(b.Total))
	r.SetDerived("SetupSeconds", formatFloat(b.Setup))
	r.SetDerived("IOSeconds", formatFloat(b.IO))
	r.SetDerived("ProcessingSeconds", formatFloat(b.Processing))
	r.SetDerived("SetupPercent", formatFloat(b.SetupPercent()))
	r.SetDerived("IOPercent", formatFloat(b.IOPercent()))
	r.SetDerived("ProcessingPercent", formatFloat(b.ProcessingPercent()))
	return b, nil
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}
