// Package monitor implements Granula's monitoring sub-process (P2): it
// takes the two kinds of performance data a job run produces — platform
// logs (operation records) and environment logs (resource samples) — and
// assembles them into the operation tree of a performance archive. The
// Assembler does that record by record, for a finished log (Assemble)
// and for a live stream alike. The package also provides Session, the end-to-end harness that runs a job on the
// simulated cluster with the environment monitor attached and returns the
// assembled archive job.
package monitor

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/archive"
	"repro/internal/cluster"
	"repro/internal/envmon"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Assembler builds one job's operation tree from its platform-log
// records as they arrive; it is the only code that checks start, end
// and info records and links operations into a tree. It links an
// operation under its parent the moment it starts, so a parent must
// start before its children, and keeps each operation's depth, mission
// path and the count of operations still open. Assemble runs it over a
// finished log; the live stream runs it as a job runs and finishes it
// at seal. An Assembler is not safe for concurrent use.
type Assembler struct {
	jobID string
	ops   map[string]*node
	root  *node
	open  int
	ended func(op *archive.Operation, depth int, path string)
}

// node is the assembly state of one started operation.
type node struct {
	op    *archive.Operation
	depth int
	path  string // mission path from the root, "A/B/C"
	ended bool
}

// NewAssembler returns an empty assembler for jobID. ended, if non-nil,
// is called with each operation as its end record is added.
func NewAssembler(jobID string, ended func(op *archive.Operation, depth int, path string)) *Assembler {
	return &Assembler{jobID: jobID, ops: map[string]*node{}, ended: ended}
}

// Open returns the number of operations started and not yet ended.
func (a *Assembler) Open() int { return a.open }

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
		if a.ended != nil {
			a.ended(n.op, n.depth, n.path)
		}
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
	a := NewAssembler(jobID, nil)
	for _, r := range records {
		if r.Job != jobID {
			continue
		}
		if err := a.Add(r); err != nil {
			return nil, err
		}
	}
	var env []archive.EnvSample
	for _, s := range samples {
		env = append(env, archive.EnvSample{Time: s.Time, Node: s.Node, Kind: s.Kind, Used: s.Used})
	}
	return a.Finish(platform, env)
}

// Session runs one instrumented job end to end: it starts the environment
// monitor, executes the job body, serializes the platform log through the
// text format (exercising the same parse path a real deployment uses),
// and assembles the archive job.
type Session struct {
	// Cluster is the environment to monitor.
	Cluster *cluster.Cluster
	// SampleInterval is the environment monitor's period in simulated
	// seconds (1.0 reproduces the paper's per-second CPU figures).
	SampleInterval float64
	// JobID and Platform label the archive job.
	JobID    string
	Platform string
	// RecordSink, when non-nil, observes every platform-log record as it
	// is emitted during Run, before assembly. SampleSink likewise
	// observes every environment sample. Both are invoked synchronously
	// from the simulation; they let live observers tail a running job
	// without altering what Run assembles.
	RecordSink func(trace.Record)
	SampleSink func(envmon.Sample)
}

// Run executes body as a simulated process with an emitter bound to this
// session's job, then assembles and returns the archive job. The
// simulation engine is run to completion; Run must therefore be called
// with an idle engine.
func (s *Session) Run(body func(p *sim.Proc, em *trace.Emitter) error) (*archive.Job, error) {
	if s.SampleInterval <= 0 {
		s.SampleInterval = 1.0
	}
	eng := s.Cluster.Engine()
	log := trace.NewLog()
	if s.RecordSink != nil {
		log.SetSink(s.RecordSink)
	}
	em := trace.NewEmitter(log, s.JobID, eng.Now)
	mon := envmon.Start(s.Cluster, s.SampleInterval)
	if s.SampleSink != nil {
		mon.SetSink(s.SampleSink)
	}
	var bodyErr error
	eng.Spawn("granula-session", func(p *sim.Proc) {
		bodyErr = body(p, em)
		mon.Stop()
	})
	if err := eng.Run(); err != nil {
		return nil, fmt.Errorf("monitor: simulation failed: %w", err)
	}
	if bodyErr != nil {
		return nil, bodyErr
	}
	// Round-trip the platform log through its text encoding: platforms
	// write log files; Granula parses them.
	var buf bytes.Buffer
	if err := trace.Encode(&buf, log.Records()); err != nil {
		return nil, fmt.Errorf("monitor: encode platform log: %w", err)
	}
	records, err := trace.Parse(&buf)
	if err != nil {
		return nil, fmt.Errorf("monitor: parse platform log: %w", err)
	}
	return Assemble(s.JobID, s.Platform, records, mon.Samples())
}
