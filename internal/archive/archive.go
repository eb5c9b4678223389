// Package archive implements Granula's performance archive (evaluation
// sub-process P3): the standardized, queryable representation of one or
// more analyzed jobs. An archive holds, per job, the operation tree
// assembled from platform logs, the environment monitor's resource
// samples, and any derived metrics; it serializes to a stable JSON format
// so results can be shared and compared across studies (the paper's
// reusability requirement, R2).
package archive

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// formatVersion identifies the archive JSON schema.
const formatVersion = 1

// Archive is a set of analyzed jobs.
type Archive struct {
	Version int    `json:"version"`
	Jobs    []*Job `json:"jobs"`
}

// Job is the performance record of one platform job.
type Job struct {
	ID       string `json:"id"`
	Platform string `json:"platform"`
	// Root is the top-level operation.
	Root *Operation `json:"root"`
	// EnvSamples are the environment monitor's per-node samples.
	EnvSamples []EnvSample `json:"envSamples,omitempty"`
}

// EnvSample mirrors envmon.Sample in the archive schema: one per-node,
// per-resource measurement over one sampling interval.
type EnvSample struct {
	Time float64 `json:"time"`
	Node string  `json:"node"`
	// Kind is the resource kind ("cpu", "disk", "nic"); empty means
	// "cpu" for archives written before multi-resource monitoring.
	Kind string  `json:"kind,omitempty"`
	Used float64 `json:"used"`
}

// IsCPU reports whether the sample measures CPU time.
func (s EnvSample) IsCPU() bool { return s.Kind == "" || s.Kind == "cpu" }

// CPUUsed returns the consumed cpu-seconds for CPU samples, 0 otherwise.
func (s EnvSample) CPUUsed() float64 {
	if s.IsCPU() {
		return s.Used
	}
	return 0
}

// Operation is one operation instance: an actor executing a mission over
// a time interval, with recorded and derived infos and filial operations.
type Operation struct {
	ID      string  `json:"id"`
	Actor   string  `json:"actor"`
	Mission string  `json:"mission"`
	Start   float64 `json:"start"`
	End     float64 `json:"end"`
	// Infos are recorded observations (from platform logs).
	Infos map[string]string `json:"infos,omitempty"`
	// Derived are metric values computed by derivation rules.
	Derived map[string]string `json:"derived,omitempty"`
	// Children are filial operations, ordered by start time then ID.
	Children []*Operation `json:"children,omitempty"`

	parent *Operation
}

// Duration returns the operation's wall time.
func (o *Operation) Duration() float64 { return o.End - o.Start }

// SetDerived records a derived metric on the operation.
func (o *Operation) SetDerived(key, value string) {
	if o.Derived == nil {
		o.Derived = map[string]string{}
	}
	o.Derived[key] = value
}

// ChildrenByMission returns direct children with the given mission, in
// order.
func (o *Operation) ChildrenByMission(mission string) []*Operation {
	var out []*Operation
	for _, c := range o.Children {
		if c.Mission == mission {
			out = append(out, c)
		}
	}
	return out
}

// Walk visits the operation and all descendants in depth-first order.
func (o *Operation) Walk(fn func(*Operation)) {
	fn(o)
	for _, c := range o.Children {
		c.Walk(fn)
	}
}

// Path returns the mission path from the root to this operation.
func (o *Operation) Path() []string {
	var parts []string
	for cur := o; cur != nil; cur = cur.parent {
		parts = append(parts, cur.Mission)
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return parts
}

// link restores parent pointers and sorts children.
func (o *Operation) link(parent *Operation) {
	o.parent = parent
	sort.SliceStable(o.Children, func(i, j int) bool {
		if o.Children[i].Start != o.Children[j].Start {
			return o.Children[i].Start < o.Children[j].Start
		}
		return o.Children[i].ID < o.Children[j].ID
	})
	for _, c := range o.Children {
		c.link(o)
	}
}

// Validate checks structural invariants: positive intervals, children
// within parents, unique IDs.
func (j *Job) Validate() error {
	if j.Root == nil {
		return fmt.Errorf("archive: job %s has no root operation", j.ID)
	}
	seen := map[string]bool{}
	var check func(o *Operation) error
	check = func(o *Operation) error {
		if o.ID == "" {
			return fmt.Errorf("archive: operation without ID under job %s", j.ID)
		}
		if seen[o.ID] {
			return fmt.Errorf("archive: duplicate operation ID %s", o.ID)
		}
		seen[o.ID] = true
		if o.End < o.Start {
			return fmt.Errorf("archive: operation %s ends before it starts", o.ID)
		}
		for _, c := range o.Children {
			if c.Start < o.Start-1e-9 || c.End > o.End+1e-9 {
				return fmt.Errorf("archive: operation %s (%s) outside parent %s (%s)",
					c.ID, c.Mission, o.ID, o.Mission)
			}
			if err := check(c); err != nil {
				return err
			}
		}
		return nil
	}
	return check(j.Root)
}

// Find returns the operations matching a mission path starting at the
// root, e.g. Find("GiraphJob", "ProcessGraph", "Superstep"). A path
// element matches children with that mission at each level; all matches
// at the final level are returned.
func (j *Job) Find(path ...string) []*Operation {
	if j.Root == nil || len(path) == 0 {
		return nil
	}
	if j.Root.Mission != path[0] {
		return nil
	}
	current := []*Operation{j.Root}
	for _, mission := range path[1:] {
		var next []*Operation
		for _, op := range current {
			next = append(next, op.ChildrenByMission(mission)...)
		}
		current = next
	}
	return current
}

// FindAll returns every operation in the job with the given mission, in
// depth-first order.
func (j *Job) FindAll(mission string) []*Operation {
	var out []*Operation
	if j.Root == nil {
		return out
	}
	j.Root.Walk(func(o *Operation) {
		if o.Mission == mission {
			out = append(out, o)
		}
	})
	return out
}

// activeAt returns the operations whose interval contains time t, in
// depth-first order.
func (j *Job) activeAt(t float64) []*Operation {
	var out []*Operation
	if j.Root == nil {
		return out
	}
	j.Root.Walk(func(o *Operation) {
		if o.Start <= t && t < o.End {
			out = append(out, o)
		}
	})
	return out
}

// sumDurations totals the durations of a set of operations.
func sumDurations(ops []*Operation) float64 {
	total := 0.0
	for _, op := range ops {
		total += op.Duration()
	}
	return total
}

// New returns an empty archive at the current format version.
func New() *Archive {
	return &Archive{Version: formatVersion}
}

// Add appends a job and re-links its operation tree.
func (a *Archive) Add(j *Job) {
	if j.Root != nil {
		j.Root.link(nil)
	}
	a.Jobs = append(a.Jobs, j)
}

// Job returns the job with the given ID, or nil.
func (a *Archive) Job(id string) *Job {
	for _, j := range a.Jobs {
		if j.ID == id {
			return j
		}
	}
	return nil
}

// Save writes the archive as indented JSON: byte for byte what
// encoding/json's Encoder with SetIndent("", "  ") writes, trailing
// newline included. It renders in one pass into a pooled buffer and
// hands w the whole document in one Write. A NaN or infinite float is
// an error, and then nothing is written.
func (a *Archive) Save(w io.Writer) error {
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	e.buf, e.err = e.buf[:0], nil
	e.archive(a)
	if e.err != nil {
		return e.err
	}
	_, err := w.Write(e.buf)
	return err
}

// Load reads an archive from JSON and restores internal links.
func Load(r io.Reader) (*Archive, error) {
	var a Archive
	dec := json.NewDecoder(r)
	if err := dec.Decode(&a); err != nil {
		return nil, fmt.Errorf("archive: decode: %w", err)
	}
	if a.Version != formatVersion {
		return nil, fmt.Errorf("archive: unsupported format version %d", a.Version)
	}
	for _, j := range a.Jobs {
		if j == nil {
			return nil, fmt.Errorf("archive: null job entry")
		}
		if j.Root != nil {
			j.Root.link(nil)
		}
		if err := j.Validate(); err != nil {
			return nil, err
		}
	}
	return &a, nil
}
