package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/archive"
	"repro/internal/archivedb"
	"repro/internal/chokepoint"
	"repro/internal/datagen"
	"repro/internal/envmon"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/platforms"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/viz"
)

// layerInput is one job of the workload, captured so that the layers it
// passes through can be timed one at a time: the dataset (with the
// config that generates it) and the harness spec the workload ran.
type layerInput struct {
	dsCfg datagen.Config
	ds    *datagen.Dataset
	spec  platforms.Spec
}

// Fixed inputs of the query-layer replay.
const (
	replayRowQuery = `duration > 0.5 order by duration desc limit 5`
	replayAggQuery = `from jobs where duration >= 0 group by job.platform, actor agg count, sum(duration), max(duration)`
	// replayCorpus is how many jobs the storage replays write before
	// the scratch store is reopened, and how many partials a merge
	// folds.
	replayCorpus = 32
	replayReps   = 5
)

// persistedShape mirrors the JSON record service.Store persists for a
// job (its type is unexported); marshalling it times the same encoder
// work as Store.Put does.
type persistedShape struct {
	Summary service.Summary `json:"summary"`
	Job     *archive.Job    `json:"job"`
	Version uint64          `json:"version,omitempty"`
}

// renderReport makes the viz outputs cmd/granula offers for one job.
func renderReport(job *archive.Job) error {
	if _, err := viz.BreakdownBar(job, 60); err != nil {
		return err
	}
	viz.SVGBreakdown(job)
	viz.SVGCPUChart(job)
	viz.SVGWorkerGantt(job, 1, 0)
	a := archive.New()
	a.Add(job)
	viz.HTMLReport(a)
	return nil
}

// analyzeChokepoints runs the choke-point analysis with the capacities
// of the cluster the job ran on, as cmd/granula -chokepoints does.
func analyzeChokepoints(job *archive.Job, spec platforms.Spec) error {
	cfg := spec.Cluster
	if cfg.Nodes == 0 {
		cfg = platforms.DAS5Config()
	}
	_, err := chokepoint.Analyze(job, chokepoint.Options{
		CPUCapacity:      float64(cfg.Nodes * cfg.CoresPerNode),
		DiskCapacity:     cfg.DiskBandwidth,
		SharedFSCapacity: cfg.SharedFSBandwidth,
		SampleInterval:   spec.SampleInterval,
	})
	return err
}

func countOps(job *archive.Job) int {
	n := 0
	if job.Root != nil {
		job.Root.Walk(func(*archive.Operation) { n++ })
	}
	return n
}

// summaryOf condenses a harness output the way the executor does.
func summaryOf(id, algorithm string, out *platforms.Output) service.Summary {
	return service.Summary{
		ID: id, Platform: out.Job.Platform, Algorithm: algorithm,
		Runtime: out.Runtime, Supersteps: out.Supersteps, Operations: countOps(out.Job),
		SetupPercent:      out.Breakdown.SetupPercent(),
		IOPercent:         out.Breakdown.IOPercent(),
		ProcessingPercent: out.Breakdown.ProcessingPercent(),
		ReplicationFactor: out.ReplicationFactor,
	}
}

func metaOf(id string, sum service.Summary) query.JobMeta {
	return query.JobMeta{
		ID: id, Platform: sum.Platform, Algorithm: sum.Algorithm,
		Runtime: sum.Runtime, Supersteps: sum.Supersteps, Operations: sum.Operations,
	}
}

// replay is the state of one layer replay.
type replay struct {
	tr     *Tracer
	count  map[string][]float64 // plain figures (counts, sizes), per input
	store  *service.Store
	sdb    *archivedb.DB // backs store
	rdb    *archivedb.DB // raw engine calls
	seq    int
	engine map[int]string // input -> platform it ran on
}

// span times fn as a span named name under parent.
func (r *replay) span(parent, op int, name string, fn func() error) error {
	id := r.tr.Start(name, parent, op)
	err := fn()
	r.tr.End(id)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// layerReplay times the exported functions of every layer, stage by
// stage, on jobs captured from the workload, and sets the replay
// metrics. Every call is recorded as a span named layer.operation; a
// metric is the mean over the inputs of the median over the repeats.
// The replay stops repeating once its time budget has passed.
func (e *env) layerReplay(inputs []layerInput) error {
	tr, budget := e.tracer, e.replayBudget()
	dir := filepath.Join(e.tmp, "replay")
	storeDir, rawDir := filepath.Join(dir, "store"), filepath.Join(dir, "raw")
	for _, d := range []string{storeDir, rawDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	sdb, store, _, _, err := openStore(storeDir, nil)
	if err != nil {
		return err
	}
	r := &replay{tr: tr, count: map[string][]float64{}, store: store, sdb: sdb, engine: map[int]string{}}
	defer func() {
		if r.store != nil {
			r.store.Close()
			r.sdb.Close()
		}
		if r.rdb != nil {
			r.rdb.Close()
		}
	}()
	if r.rdb, err = archivedb.Open(rawDir, archivedb.Options{}); err != nil {
		return err
	}

	start := time.Now()
	for rep := 0; rep < replayReps && (rep == 0 || time.Since(start) < budget); rep++ {
		for k, in := range inputs {
			if err := r.job(-(k + 1), in); err != nil {
				return fmt.Errorf("layer replay of %s/%s: %w", in.spec.Platform, in.spec.Algorithm, err)
			}
		}
	}
	if err := r.datasets(inputs); err != nil {
		return err
	}
	if err := r.reopen(storeDir); err != nil {
		return err
	}
	r.ring()
	e.setReplayMetrics(r)
	return nil
}

// job replays one captured job through every layer.
func (r *replay) job(op int, in layerInput) error {
	root := r.tr.Start("bench.replay", 0, op)
	defer r.tr.End(root)
	platform := strings.ToLower(in.spec.Platform)

	// platforms.run, with the records and samples it emits captured
	// both raw (for the trace/monitor replays) and as a live stream
	// (for the stream replays).
	var records []trace.Record
	var samples []envmon.Sample
	live, err := stream.NewManager(stream.Config{}).OpenInternal(in.spec.JobID)
	if err != nil {
		return err
	}
	spec := in.spec
	spec.RecordSink = func(rec trace.Record) { records = append(records, rec); live.PublishRecord(rec) } //nolint:errcheck
	spec.SampleSink = func(s envmon.Sample) { samples = append(samples, s); live.PublishSample(s) }      //nolint:errcheck
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var out *platforms.Output
	runSpan := r.tr.Start("platforms.run", root, op)
	out, err = platforms.RunContext(context.Background(), spec)
	r.tr.End(runSpan)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	allocMB := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	switch platform {
	case "giraph":
		r.note("pregel.alloc_mb_per_job", allocMB)
		r.note("pregel.supersteps", float64(out.Supersteps))
	case "powergraph":
		r.note("gas.alloc_mb_per_job", allocMB)
		r.note("gas.iterations", float64(out.Supersteps))
	}
	r.note("trace.records", float64(len(records)))
	r.note("monitor.ops", float64(countOps(out.Job)))

	// The stages RunContext runs after the simulation, replayed on the
	// captured records and nested under the run: what is left of the
	// run is the engine and its harness.
	nest := func(name string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		r.tr.Nest(runSpan, name, time.Since(t0))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	var logText bytes.Buffer
	var parsed []trace.Record
	var assembled *archive.Job
	steps := []struct {
		name string
		fn   func() error
	}{
		{"trace.encode", func() error { return trace.Encode(&logText, records) }},
		{"trace.parse", func() (err error) { parsed, err = trace.Parse(&logText); return }},
		{"monitor.assemble", func() (err error) {
			assembled, err = monitor.Assemble(in.spec.JobID, out.Job.Platform, parsed, samples)
			return
		}},
		{"metrics.derive", func() error {
			metrics.StandardRules().Apply(assembled)
			_, err := metrics.AnnotateDomainBreakdown(assembled)
			return err
		}},
		{"core.checkjob", func() error {
			if errs := out.Model.CheckJob(assembled); len(errs) > 0 {
				return fmt.Errorf("%d model errors, first: %v", len(errs), errs[0])
			}
			return nil
		}},
	}
	for _, s := range steps {
		if err := nest(s.name, s.fn); err != nil {
			return err
		}
	}
	r.engine[op] = platform

	// archive, viz, chokepoint.
	job := out.Job
	var saved bytes.Buffer
	a := archive.New()
	a.Add(job)
	if err := r.span(root, op, "archive.save", func() error { return a.Save(&saved) }); err != nil {
		return err
	}
	r.note("archive.bytes_per_op", float64(saved.Len())/float64(max(1, countOps(job))))
	if err := r.span(root, op, "archive.load", func() error {
		_, err := archive.Load(bytes.NewReader(saved.Bytes()))
		return err
	}); err != nil {
		return err
	}
	if err := r.span(root, op, "viz.render", func() error { return renderReport(job) }); err != nil {
		return err
	}
	if err := r.span(root, op, "chokepoint.analyze", func() error { return analyzeChokepoints(job, in.spec) }); err != nil {
		return err
	}

	// service and archivedb: one durable Put through the store, then
	// the engine calls on the same payload.
	r.seq++
	id := fmt.Sprintf("replay-%04d", r.seq%replayCorpus)
	sum := summaryOf(id, in.spec.Algorithm, out)
	stored := *job
	stored.ID = id
	var payload []byte
	if err := r.span(root, op, "service.marshal", func() (err error) {
		payload, err = json.Marshal(persistedShape{Summary: sum, Job: &stored, Version: 1})
		return
	}); err != nil {
		return err
	}
	if err := r.span(root, op, "service.store_put", func() error { return r.store.Put(&stored, sum) }); err != nil {
		return err
	}
	if err := r.span(root, op, "archivedb.put", func() error { return r.rdb.Put(id, payload, archivedb.IndexMeta{}) }); err != nil {
		return err
	}
	if err := r.span(root, op, "archivedb.get", func() error {
		_, ok, err := r.rdb.Get(id)
		if err == nil && !ok {
			err = fmt.Errorf("record %s missing", id)
		}
		return err
	}); err != nil {
		return err
	}

	// query: the row path a /jobs/{id}/query miss takes, then the
	// segment path partialForJob takes, then the fold and render.
	var rowQ, aggQ *query.Query
	if err := r.span(root, op, "query.parse", func() (err error) {
		if rowQ, err = query.Parse(replayRowQuery); err != nil {
			return err
		}
		aggQ, err = query.Parse(replayAggQuery)
		return err
	}); err != nil {
		return err
	}
	var cols *query.Columns
	r.span(root, op, "query.build_columns", func() error { cols = query.BuildColumns(&stored); return nil }) //nolint:errcheck
	r.span(root, op, "query.select_columns", func() error { rowQ.SelectColumns(cols); return nil })          //nolint:errcheck
	frame := cols.Frame(metaOf(id, sum))
	var blob []byte
	if err := r.span(root, op, "query.encode_segment", func() (err error) {
		blob, err = query.EncodeSegment(frame, 1)
		return
	}); err != nil {
		return err
	}
	if err := r.span(root, op, "archivedb.segment_put", func() error { return r.rdb.PutSegment(id, blob) }); err != nil {
		return err
	}
	var tail []byte
	var size int64
	if err := r.span(root, op, "archivedb.segment_tail", func() (err error) {
		tail, size, _, err = r.rdb.GetSegmentTail(id, query.SegmentTailHint)
		return
	}); err != nil {
		return err
	}
	if err := r.span(root, op, "archivedb.segment_get", func() (err error) {
		blob, _, err = r.rdb.GetSegment(id)
		return
	}); err != nil {
		return err
	}
	if err := r.span(root, op, "query.decode_stats", func() error {
		_, err := query.DecodeSegmentStats(tail, size)
		return err
	}); err != nil {
		return err
	}
	var decoded *query.Frame
	if err := r.span(root, op, "query.decode_segment", func() (err error) {
		decoded, _, err = query.DecodeSegment(blob)
		return
	}); err != nil {
		return err
	}
	var partial query.JobPartial
	if err := r.span(root, op, "query.aggregate_frame", func() (err error) {
		partial, err = aggQ.AggregateFrame(decoded)
		return
	}); err != nil {
		return err
	}
	partials := make([]query.JobPartial, replayCorpus)
	for i := range partials {
		partials[i] = partial
		partials[i].Job = fmt.Sprintf("replay-%04d", i)
	}
	var merged *query.AggResponse
	if err := r.span(root, op, "query.merge", func() (err error) {
		merged, err = aggQ.MergePartials(replayAggQuery, "jobs", "", partials)
		return
	}); err != nil {
		return err
	}
	if err := r.span(root, op, "query.render", func() error {
		_, err := query.RenderAggResponse(merged)
		return err
	}); err != nil {
		return err
	}

	// stream: the captured live stream, read back and ingested into a
	// second manager as an external job's would be.
	if err := live.Seal(out.Job.Platform, in.spec.Algorithm, stream.StateDone, out.Runtime); err != nil {
		return fmt.Errorf("seal captured stream: %w", err)
	}
	var events []stream.Event
	r.span(root, op, "stream.events_after", func() error { events = live.EventsAfter(0); return nil }) //nolint:errcheck
	ext := stream.NewManager(stream.Config{})
	if err := r.span(root, op, "stream.ingest", func() error {
		_, err := ext.Ingest(in.spec.JobID, events)
		return err
	}); err != nil {
		return err
	}
	extJob, ok := ext.Get(in.spec.JobID)
	if !ok {
		return fmt.Errorf("ingested stream %s is not live", in.spec.JobID)
	}
	r.span(root, op, "stream.append_columns", func() error { extJob.Columns(); return nil }) //nolint:errcheck
	return r.span(root, op, "stream.build_archive", func() error {
		_, err := extJob.BuildArchive()
		return err
	})
}

func (r *replay) note(name string, v float64) { r.count[name] = append(r.count[name], v) }

// datasets times dataset generation and fragment building once per
// distinct dataset of the inputs.
func (r *replay) datasets(inputs []layerInput) error {
	seen := map[*datagen.Dataset]bool{}
	for k, in := range inputs {
		if seen[in.ds] {
			continue
		}
		seen[in.ds] = true
		op := -(k + 1)
		var ds *datagen.Dataset
		t0 := time.Now()
		if err := r.span(0, op, "datagen.generate", func() (err error) {
			ds, err = datagen.Generate(in.dsCfg)
			return
		}); err != nil {
			return err
		}
		r.note("datagen.edges_per_s", float64(len(ds.Edges))/time.Since(t0).Seconds())
		var frags []*graph.Fragment
		r.span(0, op, "graph.fragments", func() error { //nolint:errcheck
			n := int64(ds.Graph.NumVertices())
			vc := graph.NewVertexCut(n, ds.Edges, 8, graph.VertexCutHash)
			frags = graph.BuildFragments(n, ds.Edges, vc, !ds.Directed)
			return nil
		})
		var mem int64
		for _, f := range frags {
			mem += f.MemoryBytes()
		}
		r.note("graph.bytes_per_edge", float64(mem)/float64(max(1, len(ds.Edges))))
	}
	return nil
}

// reopen closes the scratch store and opens it again, as a restart
// would: the two halves of a cold start over replayCorpus jobs at most.
func (r *replay) reopen(dir string) error {
	r.store.Close()
	err := r.sdb.Close()
	r.store, r.sdb = nil, nil // so that the heap before the reopen does not hold the old store
	if err != nil {
		return err
	}
	before := liveHeapMB()
	sdb, store, dbOpen, storeOpen, err := openStore(dir, nil)
	if err != nil {
		return err
	}
	r.sdb, r.store = sdb, store
	r.note("service.store_open_mb", max(0, liveHeapMB()-before))
	r.note("archivedb.open_ms", ms(dbOpen))
	r.note("service.store_open_ms", ms(storeOpen))
	st := r.sdb.Stats()
	r.note("archivedb.recovered_records", float64(st.RecoveredRecords))
	r.note("archivedb.from_snapshot", float64(st.RecoveredFromSnapshot))
	return nil
}

// ring times the consistent-hash lookup the router does per request.
func (r *replay) ring() {
	ring, err := shard.NewRing([]string{"s1", "s2", "s3"}, 0)
	if err != nil {
		return
	}
	const lookups = 20000
	t0 := time.Now()
	for i := 0; i < lookups; i++ {
		ring.Owners("job-"+fmt.Sprint(i), 2)
	}
	r.note("shard.ring_owners_ns", float64(time.Since(t0).Nanoseconds())/lookups)
}

// setReplayMetrics turns the replay's spans and notes into metrics.
func (e *env) setReplayMetrics(r *replay) {
	// name -> input -> durations
	dur := map[string]map[int][]float64{}
	self := map[string]map[int][]float64{}
	spans := r.tr.Spans()
	selfNs := selfTimes(spans)
	for _, s := range spans {
		if s.Op >= 0 {
			continue // a span of the workload's own ops, not of the replay
		}
		if dur[s.Name] == nil {
			dur[s.Name], self[s.Name] = map[int][]float64{}, map[int][]float64{}
		}
		dur[s.Name][s.Op] = append(dur[s.Name][s.Op], float64(s.End-s.Start)/1e6)
		self[s.Name][s.Op] = append(self[s.Name][s.Op], float64(selfNs[s.ID])/1e6)
	}
	balanced := func(m map[int][]float64) float64 {
		byKind := map[string][]float64{}
		for k, v := range m {
			byKind[fmt.Sprint(k)] = v
		}
		return kindBalancedMedian(byKind)
	}
	for name, def := range metricDefs {
		if m, ok := dur[strings.TrimSuffix(name, "_ms")]; ok && def.dense && !def.endToEnd() && def.unit == "ms" {
			e.set(name, balanced(m))
		}
	}
	// From outside, the engine cannot be told from the harness code
	// around it: what a run does not spend in the replayed stages is
	// reported whole as platforms.self_ms, and per engine as
	// <engine>.run_ms over the inputs that ran on it.
	runSelf := self["platforms.run"]
	e.set("platforms.self_ms", balanced(runSelf))
	for platform, name := range map[string]string{"giraph": "pregel.run_ms", "powergraph": "gas.run_ms", "openg": "single.run_ms"} {
		own := map[int][]float64{}
		for op, v := range runSelf {
			if r.engine[op] == platform {
				own[op] = v
			}
		}
		e.set(name, balanced(own))
	}
	for _, name := range []string{"pregel.alloc_mb_per_job", "pregel.supersteps", "gas.alloc_mb_per_job", "gas.iterations"} {
		if _, ok := r.count[name]; !ok {
			r.note(name, 0) // no input of the workload runs on that engine
		}
	}
	for name, vals := range r.count {
		e.set(name, mean(vals))
	}
}
