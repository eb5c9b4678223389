// Package archive implements Granula's performance archive (evaluation
// sub-process P3): the standardized, queryable representation of one or
// more analyzed jobs. An archive holds, per job, the operation tree
// assembled from platform logs, the environment monitor's resource
// samples, and any derived metrics; it serializes to a stable JSON format
// so results can be shared and compared across studies (the paper's
// reusability requirement, R2).
package archive

import (
	"fmt"
	"io"
	"math"
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

// EnvColumns holds a job's environment samples column by column: each
// distinct (node, kind) series once, a per-sample series index and used
// value, and the sample times run-length coded, since the monitor emits
// a sample per series at each timestamp. It is the form of both a
// stored job's samples, built at once by NewEnvColumns for a store that
// keeps many jobs resident, and a live job's, grown by Append as the
// monitor samples. Samples rebuilds the exact slice it was built from.
// The zero value holds no samples.
type EnvColumns struct {
	series []envSeries
	idx16  []uint16 // per-sample series index while len(series) <= 1<<16
	idx32  []uint32 // per-sample series index once it is not
	used   []float64
	// times holds the value of each run of bit-identical times, so -0
	// never merges into 0; ends[r] is the sample index one past run r.
	times []float64
	ends  []int
	// ids maps a series to its index while samples are appended; it is
	// rebuilt on demand, so NewEnvColumns does not keep it. last is the
	// newest sample's series: the monitor names its series in the same
	// order at every timestamp, so the one after it is tried first.
	ids  map[envSeries]uint32
	last uint32
}

type envSeries struct{ node, kind string }

// NewEnvColumns builds the columns of samples, which it does not keep,
// each column allocated once at its exact size.
func NewEnvColumns(samples []EnvSample) EnvColumns {
	n := len(samples)
	if n == 0 {
		return EnvColumns{}
	}
	runs := 1
	for i := 1; i < n; i++ {
		if math.Float64bits(samples[i].Time) != math.Float64bits(samples[i-1].Time) {
			runs++
		}
	}
	c := EnvColumns{
		idx16: make([]uint16, 0, n),
		used:  make([]float64, 0, n),
		times: make([]float64, 0, runs),
		ends:  make([]int, 0, runs),
	}
	for _, s := range samples {
		c.Append(s)
	}
	c.ids = nil
	return c
}

// Append adds s after the samples the columns hold.
func (c *EnvColumns) Append(s EnvSample) {
	key := envSeries{s.Node, s.Kind}
	k := c.last + 1
	if int(k) >= len(c.series) {
		k = 0
	}
	if len(c.series) == 0 || c.series[k] != key {
		k = c.seriesIndex(key)
	}
	c.last = k
	if c.idx32 != nil {
		c.idx32 = append(c.idx32, k)
	} else {
		c.idx16 = append(c.idx16, uint16(k))
	}
	c.used = append(c.used, s.Used)
	if r := len(c.times) - 1; r >= 0 && math.Float64bits(s.Time) == math.Float64bits(c.times[r]) {
		c.ends[r]++
	} else {
		c.times = append(c.times, s.Time)
		c.ends = append(c.ends, len(c.used))
	}
}

// seriesIndex returns the index of key, adding it to the series table if
// it is new, and widens the per-sample index to 32 bits at the series
// a 16-bit index cannot hold.
func (c *EnvColumns) seriesIndex(key envSeries) uint32 {
	if c.ids == nil {
		c.ids = make(map[envSeries]uint32, len(c.series)+1)
		for i, s := range c.series {
			c.ids[s] = uint32(i)
		}
	}
	if k, ok := c.ids[key]; ok {
		return k
	}
	k := uint32(len(c.series))
	c.ids[key] = k
	c.series = append(c.series, key)
	if k == 1<<16 {
		c.idx32 = make([]uint32, len(c.idx16), cap(c.idx16))
		for i, v := range c.idx16 {
			c.idx32[i] = uint32(v)
		}
		c.idx16 = nil
	}
	return k
}

// Each calls fn with each sample from index from on, in order; its
// strings are shared.
func (c *EnvColumns) Each(from int, fn func(EnvSample)) {
	run := sort.SearchInts(c.ends, from+1)
	for i := from; i < len(c.used); i++ {
		if i == c.ends[run] {
			run++
		}
		var k uint32
		if c.idx16 != nil {
			k = uint32(c.idx16[i])
		} else {
			k = c.idx32[i]
		}
		fn(EnvSample{Time: c.times[run], Node: c.series[k].node, Kind: c.series[k].kind, Used: c.used[i]})
	}
}

// Samples returns a new slice of the samples the columns hold, nil for
// none, in one allocation; its strings are shared.
func (c *EnvColumns) Samples() []EnvSample {
	if len(c.used) == 0 {
		return nil
	}
	out := make([]EnvSample, 0, len(c.used))
	c.Each(0, func(s EnvSample) { out = append(out, s) })
	return out
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
	e.buf, e.err, e.compact = e.buf[:0], nil, false
	e.archive(a)
	if e.err != nil {
		return e.err
	}
	_, err := w.Write(e.buf)
	return err
}

// Load reads an archive from JSON and restores internal links. It
// decodes the first JSON value of r in one pass (see decoder); what
// follows that value is ignored.
func Load(r io.Reader) (*Archive, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("archive: read: %w", err)
	}
	a, err := decodeArchive(data)
	if err != nil {
		return nil, err
	}
	if a.Version != formatVersion {
		return nil, fmt.Errorf("archive: unsupported format version %d", a.Version)
	}
	for _, j := range a.Jobs {
		if j == nil {
			return nil, fmt.Errorf("archive: null job entry")
		}
		if err := j.checkNoNull(); err != nil {
			return nil, err
		}
		if j.Root != nil {
			j.Root.link(nil)
		}
		if err := j.Validate(); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// checkNoNull refuses a decoded job whose tree holds a null operation,
// which JSON can spell ("children": [null]) and nothing else handles.
func (j *Job) checkNoNull() error {
	var walk func(o *Operation) error
	walk = func(o *Operation) error {
		for _, c := range o.Children {
			if c == nil {
				return fmt.Errorf("archive: job %s: null operation under %s", j.ID, o.ID)
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if j.Root == nil {
		return nil
	}
	return walk(j.Root)
}
