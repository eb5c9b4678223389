// Package monitor implements Granula's monitoring sub-process (P2): it
// takes the two kinds of performance data a job run produces — platform
// logs (operation records) and environment logs (resource samples) — and
// assembles them into the operation tree of a performance archive. The
// Assembler does that record by record, for a finished log (Assemble)
// and for a live stream alike, and keeps the operations that have ended
// in end order, the rows a live query reads.
package monitor

import (
	"fmt"
	"sort"

	"repro/internal/archive"
	"repro/internal/envmon"
	"repro/internal/trace"
)

// Assembler builds one job's operation tree from its platform-log
// records as they arrive; it is the only code that checks start, end
// and info records and links operations into a tree. It links an
// operation under its parent the moment it starts, so a parent must
// start before its children, and keeps each operation's depth, mission
// path, the count of operations still open and the ended operations in
// end order. Assemble runs it over a finished log; the live stream runs
// it as a job runs and finishes it at seal. An Assembler is not safe for
// concurrent use.
type Assembler struct {
	jobID string
	ops   map[string]*node
	root  *node
	open  int
	ended []*node // in end order
}

// node is the assembly state of one started operation.
type node struct {
	op    *archive.Operation
	depth int
	path  string // mission path from the root, "A/B/C"
	ended bool
}

// NewAssembler returns an empty assembler for jobID.
func NewAssembler(jobID string) *Assembler {
	return &Assembler{jobID: jobID, ops: map[string]*node{}}
}

// Open returns the number of operations started and not yet ended.
func (a *Assembler) Open() int { return a.open }

// Ended returns the number of operations ended so far.
func (a *Assembler) Ended() int { return len(a.ended) }

// EachEnded calls fn with each ended operation in end order, with its
// depth and mission path from the root ("A/B/C"). The operation is the
// assembler's own: it must not be kept past a later Add.
func (a *Assembler) EachEnded(fn func(op *archive.Operation, depth int, path string)) {
	for _, n := range a.ended {
		fn(n.op, n.depth, n.path)
	}
}

// Op returns a started operation, or nil. The assembler keeps writing
// to it as its end and info records arrive.
func (a *Assembler) Op(id string) *archive.Operation {
	if n, ok := a.ops[id]; ok {
		return n.op
	}
	return nil
}

// Add checks one record against the tree so far and adds it; a refused
// record changes nothing.
func (a *Assembler) Add(r trace.Record) error {
	return a.AddBatch([]trace.Record{r}, false)
}

// AddBatch adds records all or nothing: each is checked against the
// tree so far and the records before it, and only if every one passes
// are they added, in order, without a second check. With complete set
// the tree must also be complete once they are in (see Finish).
func (a *Assembler) AddBatch(records []trace.Record, complete bool) error {
	// pending holds the operations the batch starts or ends: id → ended.
	var pending map[string]bool
	if len(records) > 1 {
		pending = make(map[string]bool, len(records))
	}
	state := func(id string) (started, ended bool) {
		if e, ok := pending[id]; ok {
			return true, e
		}
		n, ok := a.ops[id]
		return ok, ok && n.ended
	}
	rooted, open := a.root != nil, a.open
	for i := range records {
		r := &records[i]
		started, ended := state(r.Op)
		switch r.Event {
		case trace.EventStart:
			if started {
				return fmt.Errorf("monitor: duplicate start for operation %s", r.Op)
			}
			if r.Parent == "" {
				if rooted {
					return fmt.Errorf("monitor: multiple root operations (second: %s)", r.Op)
				}
				rooted = true
			} else if ps, _ := state(r.Parent); !ps {
				return fmt.Errorf("monitor: operation %s references unknown parent %s", r.Op, r.Parent)
			}
			open++
		case trace.EventEnd:
			if !started {
				return fmt.Errorf("monitor: end before start for operation %s", r.Op)
			}
			if ended {
				return fmt.Errorf("monitor: duplicate end for operation %s", r.Op)
			}
			open--
		case trace.EventInfo:
			if !started {
				return fmt.Errorf("monitor: info before start for operation %s", r.Op)
			}
			continue
		default:
			return fmt.Errorf("monitor: unknown event %q", r.Event)
		}
		if pending != nil {
			pending[r.Op] = r.Event == trace.EventEnd
		}
	}
	if complete {
		if err := a.incomplete(rooted, open); err != nil {
			return err
		}
	}
	for i := range records {
		a.add(&records[i])
	}
	return nil
}

// Finish returns the assembled job: the tree so far, which must be
// complete — a root operation and none still open — with samples sorted
// by time then node. The job shares the assembler's operations.
func (a *Assembler) Finish(platform string, samples []archive.EnvSample) (*archive.Job, error) {
	if err := a.incomplete(a.root != nil, a.open); err != nil {
		return nil, err
	}
	sort.SliceStable(samples, func(i, k int) bool {
		if samples[i].Time != samples[k].Time {
			return samples[i].Time < samples[k].Time
		}
		return samples[i].Node < samples[k].Node
	})
	return &archive.Job{ID: a.jobID, Platform: platform, Root: a.root.op, EnvSamples: samples}, nil
}

func (a *Assembler) incomplete(rooted bool, open int) error {
	if !rooted {
		return fmt.Errorf("monitor: no records for job %q", a.jobID)
	}
	if open > 0 {
		return fmt.Errorf("monitor: %d operations never ended", open)
	}
	return nil
}

// add installs one checked record.
func (a *Assembler) add(r *trace.Record) {
	switch r.Event {
	case trace.EventStart:
		n := &node{op: &archive.Operation{ID: r.Op, Actor: r.Actor, Mission: r.Mission, Start: r.Time}, path: r.Mission}
		if r.Parent == "" {
			a.root = n
		} else {
			p := a.ops[r.Parent]
			p.op.Children = append(p.op.Children, n.op)
			n.depth, n.path = p.depth+1, p.path+"/"+r.Mission
		}
		a.ops[r.Op] = n
		a.open++
	case trace.EventEnd:
		n := a.ops[r.Op]
		n.op.End, n.ended = r.Time, true
		a.open--
		a.ended = append(a.ended, n)
	case trace.EventInfo:
		op := a.ops[r.Op].op
		if op.Infos == nil {
			op.Infos = map[string]string{}
		}
		op.Infos[r.Key] = r.Value
	}
}

// Assemble builds an archive job from platform-log records and
// environment samples by running an Assembler over the job's records in
// log order and finishing it. Records belonging to other jobs are
// ignored. The records must describe a single rooted tree of completed
// operations in which each operation starts after its parent does.
func Assemble(jobID, platform string, records []trace.Record, samples []envmon.Sample) (*archive.Job, error) {
	a := NewAssembler(jobID)
	for _, r := range records {
		if r.Job != jobID {
			continue
		}
		if err := a.Add(r); err != nil {
			return nil, err
		}
	}
	var env []archive.EnvSample
	if len(samples) > 0 {
		env = make([]archive.EnvSample, len(samples))
		for i, s := range samples {
			env[i] = archive.EnvSample{Time: s.Time, Node: s.Node, Kind: s.Kind, Used: s.Used}
		}
	}
	return a.Finish(platform, env)
}
