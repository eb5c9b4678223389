// Package core implements Granula's performance-modeling language — the
// paper's central contribution (Section 3.2). A performance model
// describes a Big Data job as a hierarchy of operations, each an actor
// executing a mission, annotated with the info to collect and the level of
// abstraction it belongs to. Analysts refine models incrementally: the
// domain level is shared by all graph-processing platforms (enabling
// cross-platform comparison), the system level captures each platform's
// workflow, and the implementation level exposes optimization details.
package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/archive"
)

// Level is a model refinement level (paper Section 3.2).
type Level int

// Model abstraction levels. Implementation-level operations may nest
// further; they all share levelImplementation.
const (
	levelDomain         Level = 1
	levelSystem         Level = 2
	levelImplementation Level = 3
)

func (l Level) String() string {
	switch l {
	case levelDomain:
		return "domain"
	case levelSystem:
		return "system"
	case levelImplementation:
		return "implementation"
	default:
		return fmt.Sprintf("level-%d", int(l))
	}
}

// OperationSpec describes one operation type in a performance model.
type OperationSpec struct {
	// Mission names what the operation does ("LoadGraph").
	Mission string `json:"mission"`
	// ActorType names who performs it ("GiraphMaster"); instance actors
	// must share this prefix (task-parallel actors append an index).
	ActorType string `json:"actorType,omitempty"`
	// Level is the abstraction level.
	Level Level `json:"level"`
	// Description explains the operation for report readers.
	Description string `json:"description,omitempty"`
	// Repeatable marks iterative operations (a mission executed
	// repeatedly, e.g. Superstep); multiple sibling instances are then
	// expected.
	Repeatable bool `json:"repeatable,omitempty"`
	// PerActor marks task-parallel operations (the same mission executed
	// by multiple actors, e.g. one LocalSuperstep per worker).
	PerActor bool `json:"perActor,omitempty"`
	// Optional operations may be absent from a job (e.g. an error path).
	Optional bool `json:"optional,omitempty"`
	// Infos lists the recorded observations the monitor should collect.
	Infos []InfoSpec `json:"infos,omitempty"`
	// Children are the filial operation types.
	Children []*OperationSpec `json:"children,omitempty"`
}

// InfoSpec declares one expected recorded info.
type InfoSpec struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
}

// Model is a platform performance model.
type Model struct {
	// Platform names the modeled system ("Giraph").
	Platform string
	// Description summarizes the model.
	Description string
	// Root is the job-level operation type.
	Root *OperationSpec
}

// validate checks the model's structural sanity: non-empty missions,
// unique sibling missions, monotone levels.
func (m *Model) validate() error {
	if m.Root == nil {
		return fmt.Errorf("core: model %s has no root", m.Platform)
	}
	var check func(spec *OperationSpec, parentLevel Level) error
	check = func(spec *OperationSpec, parentLevel Level) error {
		if spec.Mission == "" {
			return fmt.Errorf("core: operation without mission in model %s", m.Platform)
		}
		if spec.Level < parentLevel {
			return fmt.Errorf("core: operation %s at level %v under coarser level %v",
				spec.Mission, spec.Level, parentLevel)
		}
		seen := map[string]bool{}
		for _, c := range spec.Children {
			if seen[c.Mission] {
				return fmt.Errorf("core: duplicate child mission %s under %s", c.Mission, spec.Mission)
			}
			seen[c.Mission] = true
			if err := check(c, spec.Level); err != nil {
				return err
			}
		}
		return nil
	}
	return check(m.Root, m.Root.Level)
}

// Missions returns every mission in the model, sorted.
func (m *Model) Missions() []string {
	set := map[string]bool{}
	var walk func(*OperationSpec)
	walk = func(s *OperationSpec) {
		set[s.Mission] = true
		for _, c := range s.Children {
			walk(c)
		}
	}
	if m.Root != nil {
		walk(m.Root)
	}
	out := make([]string, 0, len(set))
	for msn := range set {
		out = append(out, msn)
	}
	sort.Strings(out)
	return out
}

// MaxDepth returns the depth of the model tree (root = 1).
func (m *Model) MaxDepth() int {
	var depth func(*OperationSpec) int
	depth = func(s *OperationSpec) int {
		d := 1
		for _, c := range s.Children {
			if cd := depth(c) + 1; cd > d {
				d = cd
			}
		}
		return d
	}
	if m.Root == nil {
		return 0
	}
	return depth(m.Root)
}

// ConformanceError describes one mismatch between a job and a model.
type ConformanceError struct {
	OpID    string
	Mission string
	Problem string
}

func (e ConformanceError) Error() string {
	return fmt.Sprintf("core: op %s (%s): %s", e.OpID, e.Mission, e.Problem)
}

// CheckJob validates an archived job against the model: every operation's
// mission must be a modeled child of its parent's mission, actors must
// match the declared actor type, non-repeatable missions must appear at
// most once per parent and per actor, and non-optional modeled children
// must be present. It returns all mismatches.
func (m *Model) CheckJob(job *archive.Job) []ConformanceError {
	var errs []ConformanceError
	if job.Root == nil {
		return []ConformanceError{{Problem: "job has no root operation"}}
	}
	if m.Root == nil {
		return []ConformanceError{{Problem: "model has no root"}}
	}
	if job.Root.Mission != m.Root.Mission {
		errs = append(errs, ConformanceError{
			OpID: job.Root.ID, Mission: job.Root.Mission,
			Problem: fmt.Sprintf("root mission %q does not match model root %q", job.Root.Mission, m.Root.Mission),
		})
		return errs
	}
	var walk func(op *archive.Operation, spec *OperationSpec)
	walk = func(op *archive.Operation, spec *OperationSpec) {
		if !strings.HasPrefix(op.Actor, spec.ActorType) {
			errs = append(errs, ConformanceError{
				OpID: op.ID, Mission: op.Mission,
				Problem: fmt.Sprintf("actor %q does not match model actor type %q", op.Actor, spec.ActorType),
			})
		}
		// Index children specs by mission.
		specs := map[string]*OperationSpec{}
		for _, cs := range spec.Children {
			specs[cs.Mission] = cs
		}
		counts := map[string]int{}
		actorCounts := map[string]map[string]int{}
		for _, child := range op.Children {
			cs, ok := specs[child.Mission]
			if !ok {
				errs = append(errs, ConformanceError{
					OpID: child.ID, Mission: child.Mission,
					Problem: fmt.Sprintf("mission %q is not modeled under %q", child.Mission, op.Mission),
				})
				continue
			}
			counts[child.Mission]++
			if actorCounts[child.Mission] == nil {
				actorCounts[child.Mission] = map[string]int{}
			}
			actorCounts[child.Mission][child.Actor]++
			walk(child, cs)
		}
		// Check modeled children in model order (not map order), so the
		// emitted conformance errors are deterministic run to run.
		seen := map[string]bool{}
		for _, cs := range spec.Children {
			mission := cs.Mission
			if seen[mission] {
				continue
			}
			seen[mission] = true
			cs = specs[mission] // duplicate missions: the index's winner
			n := counts[mission]
			if n == 0 {
				// Models are refined incrementally (requirement R3): a job
				// may be instrumented more coarsely than the model, so
				// absence is only an error for required domain-level
				// operations, which every conforming job must expose.
				if !cs.Optional && cs.Level == levelDomain {
					errs = append(errs, ConformanceError{
						OpID: op.ID, Mission: op.Mission,
						Problem: fmt.Sprintf("modeled child %q missing", mission),
					})
				}
				continue
			}
			if !cs.Repeatable {
				if cs.PerActor {
					actors := make([]string, 0, len(actorCounts[mission]))
					for actor := range actorCounts[mission] {
						actors = append(actors, actor)
					}
					sort.Strings(actors)
					for _, actor := range actors {
						if c := actorCounts[mission][actor]; c > 1 {
							errs = append(errs, ConformanceError{
								OpID: op.ID, Mission: op.Mission,
								Problem: fmt.Sprintf("mission %q appears %d times for actor %s but is not repeatable", mission, c, actor),
							})
						}
					}
				} else if n > 1 {
					errs = append(errs, ConformanceError{
						OpID: op.ID, Mission: op.Mission,
						Problem: fmt.Sprintf("mission %q appears %d times but is not repeatable", mission, n),
					})
				}
			}
		}
	}
	walk(job.Root, m.Root)
	return errs
}

// Render returns the model as an indented tree, one operation per line
// with its level — the textual form of the paper's Figure 4.
func (m *Model) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Performance model: %s\n", m.Platform)
	if m.Description != "" {
		fmt.Fprintf(&sb, "%s\n", m.Description)
	}
	var walk func(s *OperationSpec, indent string)
	walk = func(s *OperationSpec, indent string) {
		flags := ""
		if s.Repeatable {
			flags += " repeated"
		}
		if s.PerActor {
			flags += " per-actor"
		}
		fmt.Fprintf(&sb, "%s%s [%s @ %s]%s\n", indent, s.Mission, s.ActorType, s.Level, flags)
		for _, c := range s.Children {
			walk(c, indent+"  ")
		}
	}
	walk(m.Root, "")
	return sb.String()
}
