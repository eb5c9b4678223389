package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/archivedb"
	"repro/internal/datagen"
	"repro/internal/platforms"
	"repro/internal/service"
)

// seedPool is how many dataset seeds the write ops draw from: enough
// that the executor's dataset cache is exercised, few enough that it
// is not the whole cost.
const seedPool = 8

// writeReq builds write op i: platform × algorithm rotate, and the
// run's seed draws the dataset seed from the pool 1..seedPool. Every run
// therefore submits from the same 72 distinct jobs, in a seed-dependent
// order: the cost of a job does not depend on the run's seed, only the
// sequence does.
func writeReq(prefix string, seed int64, i, nodes int) service.JobRequest {
	rot := rotation[i%len(rotation)]
	return service.JobRequest{
		ID:       fmt.Sprintf("%s-%06d", prefix, i),
		Platform: rot[0], Algorithm: rot[1],
		Seed:  int64(newOpRand(seed, i).intn(seedPool)) + 1,
		Nodes: nodes,
	}
}

// archiveSum is a checksum of archive bytes with the job ID cut out, so
// that two jobs that differ only in their ID compare equal.
func archiveSum(body []byte, id string) uint32 {
	at := bytes.Index(body, []byte(`"`+id+`"`))
	if at < 0 {
		return crc32.ChecksumIEEE(body)
	}
	return crc32.Update(crc32.ChecksumIEEE(body[:at]), crc32.IEEETable, body[at+len(id)+2:])
}

// writeLog remembers what the write ops of a workload saw, for the
// oracles that run after the measured passes: every acknowledged job,
// and per distinct request (platform, algorithm, dataset seed, nodes)
// one job's archive bytes and the checksum every other must match.
type writeLog struct {
	mu    sync.Mutex
	acked []string
	keyOf map[string]string // job ID -> its distinct request
	first map[string]writeSample
}

type writeSample struct {
	req  service.JobRequest
	body []byte
	sum  uint32
}

func newWriteLog() *writeLog {
	return &writeLog{first: map[string]writeSample{}, keyOf: map[string]string{}}
}

// record notes one completed job; it fails when an identical request
// had returned different archive bytes before.
func (l *writeLog) record(req service.JobRequest, body []byte) error {
	key := fmt.Sprintf("%s/%s/%d/%d", req.Platform, req.Algorithm, req.Seed, req.Nodes)
	sum := archiveSum(body, req.ID)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.acked = append(l.acked, req.ID)
	l.keyOf[req.ID] = key
	if old, ok := l.first[key]; ok {
		if old.sum != sum {
			return fmt.Errorf("job %s: archive differs from %s, an identical request", req.ID, old.req.ID)
		}
		return nil
	}
	l.first[key] = writeSample{req: req, body: body, sum: sum}
	return nil
}

// checkAgainstHarness is the oracle of the write path, once per
// distinct request: the archive the service returned is byte for byte
// what the harness produces for that request in this process, and that
// run's values equal the reference algorithm's. It returns the harness
// output of each distinct request.
func (l *writeLog) checkAgainstHarness(e *env) map[string]*platforms.Output {
	outputs := map[string]*platforms.Output{}
	datasets := map[int64]*datagen.Dataset{}
	for _, key := range sortedKeys(l.first) {
		s := l.first[key]
		ds := datasets[s.req.Seed]
		if ds == nil {
			var err error
			if _, ds, err = smallDataset(s.req.Seed); err != nil {
				e.incorrect("oracle dataset: %v", err)
				return outputs
			}
			datasets[s.req.Seed] = ds
		}
		spec := specFor(s.req.ID, s.req.Platform, s.req.Algorithm, s.req.Nodes, ds)
		out, err := platforms.RunContext(context.Background(), spec)
		if err != nil {
			e.incorrect("oracle run %s: %v", key, err)
			continue
		}
		outputs[key] = out
		if err := checkOutput(spec, out); err != nil {
			e.incorrect("%v", err)
		}
		var want bytes.Buffer
		a := archive.New()
		a.Add(out.Job)
		if err := a.Save(&want); err != nil || !bytes.Equal(want.Bytes(), s.body) {
			e.incorrect("job %s: served archive differs from the harness's own (%d vs %d bytes)", s.req.ID, len(s.body), want.Len())
		}
	}
	return outputs
}

// checkDurable reopens a stopped node's data directory and looks for
// every acknowledged job.
func (l *writeLog) checkDurable(e *env, dir string) {
	db, err := archivedb.Open(dir, archivedb.Options{})
	if err != nil {
		e.incorrect("durability: reopen %s: %v", dir, err)
		return
	}
	defer db.Close()
	for _, id := range l.acked {
		if _, ok, err := db.Get(id); err != nil || !ok {
			e.incorrect("durability: acknowledged job %s is missing after reopen (err %v)", id, err)
			return
		}
	}
}

// layerInputs picks one recorded request per platform for the replay.
func (l *writeLog) layerInputs() ([]layerInput, error) {
	var out []layerInput
	seen := map[string]bool{}
	for _, key := range sortedKeys(l.first) {
		req := l.first[key].req
		if seen[req.Platform] {
			continue
		}
		seen[req.Platform] = true
		cfg, ds, err := smallDataset(req.Seed)
		if err != nil {
			return nil, err
		}
		out = append(out, layerInput{dsCfg: cfg, ds: ds, spec: specFor("replay-"+req.ID, req.Platform, req.Algorithm, req.Nodes, ds)})
	}
	return out, nil
}

// depthSampler watches the executor's queue depth while a pass runs.
type depthSampler struct {
	stop chan struct{}
	done chan struct{}
	max  int
}

func sampleQueueDepth(exec *service.Executor) *depthSampler {
	s := &depthSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.max = max(s.max, exec.QueueDepth())
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the deepest queue it saw.
func (s *depthSampler) finish() int {
	close(s.stop)
	<-s.done
	return s.max
}

type singleNode struct {
	n  *node
	cl *client
}

func startSingleNode(dir string, clients int) (*singleNode, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	n, err := startNode(dir, nodeConfig{workers: 2, queue: 64})
	if err != nil {
		return nil, err
	}
	cl := newClient(n.url, clients)
	if _, err := cl.getOK("/healthz"); err != nil {
		n.stop()
		return nil, err
	}
	return &singleNode{n: n, cl: cl}, nil
}

func (s *singleNode) stop() {
	s.cl.close()
	s.n.stop()
	os.RemoveAll(s.n.dir)
}

func runServeWrite(e *env) error {
	const clients = 2
	sn, err := startSingleNode(filepath.Join(e.tmp, "node"), clients)
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			sn.stop()
		}
	}()

	log := newWriteLog()
	// 500 jobs at --seconds 10; the reference box sustains ≈60 durable
	// jobs/s.
	next := 0
	run := func(tr *Tracer, frac float64) (*samples, int, loopTime) {
		smp := newSamples(clients)
		n := e.ops(50, frac)
		took := closedLoop(clients, n, next, func(w, i int) {
			req := writeReq(fmt.Sprintf("w%d", e.seed), e.seed, i, 0)
			body, jt, err := sn.cl.runJob(tr, i, req)
			if err == nil {
				err = log.record(req, body)
			}
			if err != nil {
				e.opFailed(err)
				return
			}
			smp.add(w, req.Platform+"-"+req.Algorithm, jt.total)
		})
		next += n
		return smp, n, took
	}
	run(nil, warmUp) // discarded
	e.measuringFrom()

	before, err := sn.cl.scrape()
	if err != nil {
		return err
	}
	var lat []float64
	jobs, depth := 0, 0
	for _, p := range e.passes() {
		var sampler *depthSampler
		if p.tr != nil {
			sampler = sampleQueueDepth(sn.n.exec)
		}
		smp, n, took := run(p.tr, p.frac)
		if sampler != nil {
			depth = sampler.finish()
		}
		e.attempted(n)
		jobs += n
		jobsByKind := smp.byKind()
		lat = append(lat, kindBalancedMedian(jobsByKind))
		if e.trace {
			continue
		}
		var all []float64
		for _, v := range jobsByKind {
			all = append(all, v...)
		}
		e.set("job_ms_p50", lat[0])
		e.set("op_ms_p50", lat[0])
		e.set("job_ms_p95", percentile(all, 95))
		e.set("jobs_per_s", took.perSecond())
		e.set("live_heap_mb", liveHeapMB())
		size, err := dirBytes(sn.n.dir)
		if err != nil {
			return err
		}
		e.set("disk_bytes_per_job", float64(size)/float64(max(1, sn.n.store.Len())))
	}

	if e.trace {
		after, err := sn.cl.scrape()
		if err != nil {
			return err
		}
		inputs, err := log.layerInputs()
		if err != nil {
			return err
		}
		counts := counterInputs{node: after.delta(before), jobs: jobs, queueDepthMax: depth}
		if err := e.reportTrace(lat, counts, inputs); err != nil {
			return err
		}
	}

	dir := sn.n.dir
	sn.cl.close()
	sn.n.stop()
	stopped = true
	log.checkDurable(e, dir)
	os.RemoveAll(dir)
	log.checkAgainstHarness(e)
	return nil
}

// setClientSpans reports the client-side spans of the write op.
func (e *env) setClientSpans() {
	names := map[string]string{"service.submit_ack": "service.submit_ack_ms", "service.done_wait": "service.done_wait_ms"}
	dur := map[string][]float64{}
	for _, s := range e.tracer.Spans() {
		if metric, ok := names[s.Name]; ok {
			dur[metric] = append(dur[metric], float64(s.End-s.Start)/1e6)
		}
	}
	for metric, v := range dur {
		e.set(metric, median(v))
	}
}
