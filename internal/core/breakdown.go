package core

import (
	"fmt"

	"repro/internal/archive"
)

// Breakdown is the domain-level decomposition of a job (paper Figure 3 /
// Figure 5): setup time Ts, input/output time Td, and processing time Tp,
// in seconds. Identical domain-level operations across platforms make
// these directly comparable (the paper's cross-platform metric).
type Breakdown struct {
	// Total is the job's end-to-end makespan.
	Total float64
	// Setup is Startup + Cleanup (Ts).
	Setup float64
	// IO is LoadGraph + OffloadGraph (Td).
	IO float64
	// Processing is ProcessGraph (Tp).
	Processing float64
	// Other is unattributed time between domain operations.
	Other float64
}

// DomainBreakdown computes the breakdown from a job's domain-level
// operations. The job's root must follow the common domain model (five
// Figure-3 operations directly under the root).
func DomainBreakdown(job *archive.Job) (Breakdown, error) {
	if job.Root == nil {
		return Breakdown{}, fmt.Errorf("core: job %s has no root", job.ID)
	}
	var b Breakdown
	b.Total = job.Root.Duration()
	found := map[string]bool{}
	for _, child := range job.Root.Children {
		switch child.Mission {
		case "Startup", "Cleanup":
			b.Setup += child.Duration()
		case "LoadGraph", "OffloadGraph":
			b.IO += child.Duration()
		case "ProcessGraph":
			b.Processing += child.Duration()
		default:
			continue
		}
		found[child.Mission] = true
	}
	for _, required := range []string{"Startup", "LoadGraph", "ProcessGraph"} {
		if !found[required] {
			return b, fmt.Errorf("core: job %s lacks domain operation %s", job.ID, required)
		}
	}
	b.Other = b.Total - b.Setup - b.IO - b.Processing
	if b.Other < 0 {
		b.Other = 0
	}
	return b, nil
}

// Steps returns a job's step operations, the units its algorithm
// iterates in: ProcessGraph's Superstep children (Pregel), else its
// Iteration children (GAS and single-node). A job with neither, or
// with no root, has none.
func Steps(job *archive.Job) []*archive.Operation {
	if job.Root == nil {
		return nil
	}
	steps := job.Find(job.Root.Mission, "ProcessGraph", "Superstep")
	if len(steps) == 0 {
		steps = job.Find(job.Root.Mission, "ProcessGraph", "Iteration")
	}
	return steps
}

// SetupPercent returns Ts as a percentage of the total.
func (b Breakdown) SetupPercent() float64 { return percent(b.Setup, b.Total) }

// IOPercent returns Td as a percentage of the total.
func (b Breakdown) IOPercent() float64 { return percent(b.IO, b.Total) }

// ProcessingPercent returns Tp as a percentage of the total.
func (b Breakdown) ProcessingPercent() float64 { return percent(b.Processing, b.Total) }

func percent(part, total float64) float64 {
	if total <= 0 {
		return 0
	}
	return 100 * part / total
}

// String formats the breakdown in the paper's reporting style.
func (b Breakdown) String() string {
	return fmt.Sprintf("total %.2fs: setup %.1f%%, input/output %.1f%%, processing %.1f%%",
		b.Total, b.SetupPercent(), b.IOPercent(), b.ProcessingPercent())
}
