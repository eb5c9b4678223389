package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/archive"
)

const (
	// corpusJobs is the corpus of the read workloads: 24 distinct
	// harness outputs under 600 IDs, written one Put at a time with fsync
	// on and reopened, at ≈9.5 ms a job for the two together. The issue
	// sized it at 2,000; README.md ("How the counts were sized") has the
	// arithmetic of the driver's time cap that leaves room for this many.
	// With ≈27 distinct reads per job the working set is still 30 times
	// the response cache's 512 entries.
	corpusJobs = 600
	// writeEvery makes one op in 20 of the read mix a job submission,
	// which bumps the store generation and so invalidates every cached
	// response. Writes come at fixed positions (the seed shifts them) and
	// not at random, so that every run writes the same number of jobs.
	writeEvery = 20
	// openRate is phase B's fixed request rate, about a third of what
	// two closed-loop clients reach on the reference box.
	openRate = 400.0
)

type corpusNode struct {
	c  *corpus
	cl *client
}

func startCorpusNode(dir string, n, clients int) (*corpusNode, error) {
	c, err := buildCorpus(dir, n, nodeConfig{workers: 2, queue: 64})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &corpusNode{c: c, cl: newClient(c.node.url, clients)}, nil
}

func (cn *corpusNode) stop() {
	cn.cl.close()
	cn.c.node.stop()
	os.RemoveAll(cn.c.node.dir)
}

// checkTemplates is the oracle of a corpus: every distinct harness
// output is correct, and the archive the service returns for a job is
// byte for byte the template it was made from under that job's ID.
func (cn *corpusNode) checkTemplates(e *env) {
	for i, t := range cn.c.templates {
		if err := checkOutput(t.spec, t.out); err != nil {
			e.incorrect("%v", err)
		}
		if i >= len(cn.c.ids) {
			continue
		}
		id := cn.c.ids[i]
		got, err := cn.cl.getOK("/jobs/" + id + "/archive")
		if err != nil {
			e.incorrect("%v", err)
			continue
		}
		job := *t.out.Job
		job.ID = id
		var want bytes.Buffer
		a := archive.New()
		a.Add(&job)
		if err := a.Save(&want); err != nil || !bytes.Equal(got, want.Bytes()) {
			e.incorrect("job %s: served archive differs from its template %s", id, t.spec.JobID)
		}
	}
}

func runServeReadMixed(e *env) error {
	const clients = 2
	cn, err := startCorpusNode(filepath.Join(e.tmp, "corpus"), e.scaled(corpusJobs), clients)
	if err != nil {
		return err
	}
	defer cn.stop()

	mix := newReadMix(cn.c.ids)
	readers := make([]*reader, clients)
	for i := range readers {
		readers[i] = newReader(cn.cl)
	}
	log := newWriteLog()
	var pendingMu sync.Mutex
	var pending []string // jobs phase B submitted without waiting

	isWrite := func(i int) bool { return (i+int(e.seed%writeEvery))%writeEvery == 0 }
	// closedOp is op i of phase A: a read, or now and then a whole
	// write op, whose completion the client waits for.
	closedOp := func(tr *Tracer, smp *samples, w, i int) {
		r := newOpRand(e.seed, i)
		if isWrite(i) {
			req := writeReq(fmt.Sprintf("rm%d", e.seed), e.seed, i, 2)
			body, jt, err := cn.cl.runJob(tr, i, req)
			if err == nil {
				err = log.record(req, body)
			}
			if err != nil {
				e.opFailed(err)
				return
			}
			smp.add(w, "job", jt.total)
			return
		}
		_, path, conditional := mix.pick(r)
		d, err := readers[w].read(tr, i, path, conditional)
		if err != nil {
			e.opFailed(err)
			return
		}
		smp.add(w, "read", d)
	}
	// openOp is op i of phase B. It must not hold its connection for a
	// whole job, so a write is only the submission; the jobs are waited
	// for after the phase. Latency runs from when the op was due.
	openOp := func(tr *Tracer, smp *samples, w, i int, due time.Time) {
		r := newOpRand(e.seed, i)
		if isWrite(i) {
			req := writeReq(fmt.Sprintf("rm%d", e.seed), e.seed, i, 2)
			if _, err := cn.cl.submit(req, due.Add(opDeadline)); err != nil {
				e.opFailed(err)
				return
			}
			pendingMu.Lock()
			pending = append(pending, req.ID)
			pendingMu.Unlock()
			smp.add(w, "submit", time.Since(due))
			return
		}
		_, path, conditional := mix.pick(r)
		if _, err := readers[w].read(tr, i, path, conditional); err != nil {
			e.opFailed(err)
			return
		}
		smp.add(w, "read", time.Since(due))
	}
	drain := func() {
		for _, id := range pending {
			if _, err := cn.cl.waitDone(id, time.Now().Add(opDeadline)); err != nil {
				e.opFailed(err)
			}
		}
		pending = nil
	}

	// Phase A runs 400 ops per measured second (two closed-loop clients
	// reach ≈1,300/s on the reference box, so it takes a third of the
	// time), phase B 160: 4 s at openRate, 1,520 reads for the p99.
	next := 0
	phaseA := func(tr *Tracer, frac float64) (*samples, int, loopTime) {
		smp := newSamples(clients)
		n := e.ops(400, frac)
		took := closedLoop(clients, n, next, func(w, i int) { closedOp(tr, smp, w, i) })
		next += n
		return smp, n, took
	}
	phaseA(nil, warmUp) // discarded
	e.measuringFrom()

	before, err := cn.cl.scrape()
	if err != nil {
		return err
	}
	var lat []float64
	var lag []float64 // generator lateness of the last open-loop phase
	jobs := 0
	for _, p := range e.passes() {
		a, n, _ := phaseA(p.tr, p.frac)
		reads := a.of("read")
		jobs += len(a.of("job"))
		b := newSamples(clients)
		m := e.ops(0.4*openRate, p.frac)
		lag = openLoop(clients, m, openRate, next, func(w, i int, due time.Time) { openOp(p.tr, b, w, i, due) })
		next += m
		jobs += len(pending)
		drain()
		e.attempted(n + m)
		lat = append(lat, median(reads))
		if e.trace {
			continue
		}
		fromDue := b.of("read")
		// Read capacity is what the two clients sustain while they read:
		// clients / mean read latency, which leaves out the time they
		// spend inside the write ops.
		e.set("read_ms_p50", percentile(fromDue, 50))
		// The headline latency is the closed loop's: a stall in the open
		// loop is charged to every read it delayed, so phase B's median
		// moved by a factor of two between runs that phase A's sat still in.
		e.set("op_ms_p50", lat[0])
		e.set("read_ms_p99", percentile(fromDue, 99))
		e.set("reads_per_s", clients*1000/a.steadyMean("read"))
		e.set("cold_start_s", cn.c.coldStart.Seconds())
		e.set("live_heap_mb", liveHeapMB())
		size, err := dirBytes(cn.c.node.dir)
		if err != nil {
			return err
		}
		e.set("disk_bytes_per_job", float64(size)/float64(max(1, cn.c.node.store.Len())))
	}

	if e.trace {
		after, err := cn.cl.scrape()
		if err != nil {
			return err
		}
		e.set("bench.generator_lag_ms_p99", percentile(lag, 99))
		counts := counterInputs{node: after.delta(before), jobs: jobs}
		if err := e.reportTrace(lat, counts, cn.c.layerInputs()); err != nil {
			return err
		}
	}
	cn.checkTemplates(e)
	return nil
}
