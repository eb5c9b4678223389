package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/archive"
	"repro/internal/envmon"
	"repro/internal/platforms"
	"repro/internal/stream"
	"repro/internal/trace"
)

const (
	streamBatch = 32
	// streamSampleInterval thins the environment samples of the
	// template run (the harness default of 1 s gives ≈1,500 events, most
	// of them samples) so that a streamed job is ≈300 events.
	streamSampleInterval = 40.0
)

// streamTemplate is the event sequence every streamed job replays: a
// real harness run, published into a scratch stream.Manager through the
// same sinks the executor uses and read back with EventsAfter(0).
type streamTemplate struct {
	spec   platforms.Spec
	events []stream.Event
}

func newStreamTemplate() (*streamTemplate, error) {
	_, ds, err := smallDataset(corpusSeed)
	if err != nil {
		return nil, err
	}
	spec := specFor("stream-template", "Giraph", "BFS", 2, ds)
	spec.SampleInterval = streamSampleInterval
	live, err := stream.NewManager(stream.Config{}).OpenInternal(spec.JobID)
	if err != nil {
		return nil, err
	}
	run := spec
	run.RecordSink = func(r trace.Record) { live.PublishRecord(r) }  //nolint:errcheck
	run.SampleSink = func(s envmon.Sample) { live.PublishSample(s) } //nolint:errcheck
	out, err := platforms.RunContext(context.Background(), run)
	if err != nil {
		return nil, err
	}
	if err := live.Seal(out.Job.Platform, spec.Algorithm, stream.StateDone, out.Runtime); err != nil {
		return nil, err
	}
	return &streamTemplate{spec: spec, events: live.EventsAfter(0)}, nil
}

// batches encodes the template once: the bytes do not depend on the
// job they are sent for.
func (t *streamTemplate) batches() ([][]byte, []uint64, error) {
	var bodies [][]byte
	var last []uint64
	for off := 0; off < len(t.events); off += streamBatch {
		part := t.events[off:min(off+streamBatch, len(t.events))]
		body, err := stream.EncodeEvents(part)
		if err != nil {
			return nil, nil, err
		}
		bodies, last = append(bodies, body), append(last, part[len(part)-1].Seq)
	}
	return bodies, last, nil
}

// tailResult is what one /watch tail saw.
type tailResult struct {
	at     map[uint64]time.Time // arrival of each frame, by event sequence
	sealed bool
	err    error
}

// tail follows GET /watch/{id} until the stream ends. attached is
// closed once the response has started.
func tail(hc *http.Client, base, id string, attached chan<- struct{}) tailResult {
	res := tailResult{at: map[uint64]time.Time{}}
	resp, err := hc.Get(base + "/watch/" + id + "?from=0")
	if err != nil {
		close(attached)
		res.err = err
		return res
	}
	defer resp.Body.Close()
	close(attached)
	if resp.StatusCode != http.StatusOK {
		res.err = fmt.Errorf("GET /watch/%s: %d", id, resp.StatusCode)
		return res
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	sealFrame := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			if seq, err := strconv.ParseUint(line[4:], 10, 64); err == nil {
				res.at[seq] = time.Now()
			}
		case line == "event: seal":
			sealFrame = true
		case line == "" && sealFrame:
			res.sealed = true
			return res
		}
	}
	res.err = sc.Err()
	return res
}

// streamer drives streamed jobs against one node: a writer connection
// and a tail connection.
type streamer struct {
	sn     *singleNode
	tailHC *http.Client
	tpl    *streamTemplate
	bodies [][]byte
	last   []uint64
}

func (s *streamer) stop() {
	s.tailHC.CloseIdleConnections()
	s.sn.stop()
}

// ingest posts one batch and returns once it is acknowledged, which
// the server does only after the batch is in the WAL.
func (s *streamer) ingest(id string, body []byte, deadline time.Time) (int, error) {
	r, err := s.sn.cl.retried("POST", "/ingest/"+id, body, deadline)
	if err != nil {
		return 0, err
	}
	if r.status != http.StatusOK {
		return 0, fmt.Errorf("POST /ingest/%s: %d: %.200s", id, r.status, r.body)
	}
	var ack struct {
		Accepted int `json:"accepted"`
	}
	if err := json.Unmarshal(r.body, &ack); err != nil {
		return 0, err
	}
	return ack.Accepted, nil
}

// streamedJob is the outcome of one op.
type streamedJob struct {
	events      int
	total       time.Duration
	toFrame     []time.Duration // batch send -> SSE frame of its last event
	archive     []byte
	sealMissing bool
}

// job streams one job: the first batch opens the stream, a concurrent
// tail follows it, the other batches go through /ingest, and after the
// seal the archive is fetched. A tail that ends without its seal frame
// fails the op and is not retried.
func (s *streamer) job(tr *Tracer, op int, id string) (streamedJob, error) {
	var out streamedJob
	start := time.Now()
	deadline := start.Add(opDeadline)
	root := tr.Start("bench.stream_job", 0, op)
	defer tr.End(root)

	sent := make([]time.Time, len(s.bodies))
	send := func(b int) error {
		sp := tr.Start("service.ingest", root, op)
		sent[b] = time.Now()
		n, err := s.ingest(id, s.bodies[b], deadline)
		tr.End(sp)
		out.events += n
		return err
	}
	if err := send(0); err != nil {
		return out, err
	}
	attached := make(chan struct{})
	done := make(chan tailResult, 1)
	go func() { done <- tail(s.tailHC, s.sn.n.url, id, attached) }()
	<-attached
	for b := 1; b < len(s.bodies); b++ {
		if err := send(b); err != nil {
			<-done
			return out, err
		}
	}
	sp := tr.Start("service.watch_drain", root, op)
	res := <-done
	tr.End(sp)
	if res.err != nil {
		return out, res.err
	}
	if !res.sealed {
		out.sealMissing = true
		return out, fmt.Errorf("watch %s: tail ended without its seal frame", id)
	}
	// The first batch was sent before the tail attached; its frames
	// measure the attach, not the fan-out.
	for b := 1; b < len(s.bodies); b++ {
		if at, ok := res.at[s.last[b]]; ok {
			out.toFrame = append(out.toFrame, at.Sub(sent[b]))
		}
	}
	sp = tr.Start("service.archive_get", root, op)
	r, err := s.sn.cl.get("/jobs/" + id + "/archive")
	tr.End(sp)
	if err != nil {
		return out, err
	}
	if r.status != http.StatusOK || len(r.body) == 0 {
		return out, fmt.Errorf("GET /jobs/%s/archive: %d", id, r.status)
	}
	out.archive, out.total = r.body, time.Since(start)
	return out, nil
}

func runStreamLive(e *env) error {
	tpl, err := newStreamTemplate()
	if err != nil {
		return err
	}
	st := &streamer{tpl: tpl, tailHC: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}}
	if st.bodies, st.last, err = tpl.batches(); err != nil {
		return err
	}
	if st.sn, err = startSingleNode(filepath.Join(e.tmp, "node"), 1); err != nil {
		return err
	}
	defer st.stop()

	var firstID string
	var firstArchive []byte
	var firstSum uint32
	sealMissing := 0
	next := 0
	type passResult struct {
		smp    *samples
		n      int
		events int
		took   loopTime
	}
	// 400 jobs at --seconds 10: the reference box streams ≈70 jobs/s, so
	// a run measures under 6 s; the issue fixed the count.
	run := func(tr *Tracer, frac float64) passResult {
		res := passResult{smp: newSamples(1), n: e.ops(40, frac)}
		res.took = closedLoop(1, res.n, next, func(_, i int) {
			id := fmt.Sprintf("s%d-%06d", e.seed, i)
			job, err := st.job(tr, i, id)
			res.events += job.events
			if job.sealMissing {
				sealMissing++
			}
			if err == nil {
				sum := archiveSum(job.archive, id)
				if firstID == "" {
					firstID, firstArchive, firstSum = id, job.archive, sum
				} else if sum != firstSum {
					err = fmt.Errorf("job %s: archive differs from %s, streamed from the same events", id, firstID)
				}
			}
			if err != nil {
				e.opFailed(err)
				return
			}
			res.smp.add(0, "job", job.total)
			for _, d := range job.toFrame {
				res.smp.add(0, "frame", d)
			}
		})
		next += res.n
		return res
	}
	run(nil, warmUp) // discarded
	e.measuringFrom()

	before, err := st.sn.cl.scrape()
	if err != nil {
		return err
	}
	var lat []float64
	jobs := 0
	for _, p := range e.passes() {
		res := run(p.tr, p.frac)
		e.attempted(res.n)
		jobs += res.n
		// Every job is the same events, so events per second is jobs per
		// second times the events of a job.
		perS := res.took.perSecond() * float64(res.events) / float64(res.n)
		lat = append(lat, median(res.smp.of("job")))
		if e.trace {
			continue
		}
		toFrame := median(res.smp.of("frame"))
		e.set("ingest_events_per_s", perS)
		e.set("ingest_to_frame_ms_p50", toFrame)
		e.set("op_ms_p50", toFrame)
		e.set("live_heap_mb", liveHeapMB())
	}

	if e.trace {
		after, err := st.sn.cl.scrape()
		if err != nil {
			return err
		}
		cfg, ds, err := smallDataset(corpusSeed)
		if err != nil {
			return err
		}
		inputs := []layerInput{{dsCfg: cfg, ds: ds, spec: st.tpl.spec}}
		for _, pf := range []string{"PowerGraph", "OpenG"} {
			spec := specFor("stream-replay-"+pf, pf, "BFS", 2, ds)
			spec.SampleInterval = streamSampleInterval
			inputs = append(inputs, layerInput{dsCfg: cfg, ds: ds, spec: spec})
		}
		counts := counterInputs{node: after.delta(before), jobs: jobs, sealMissing: sealMissing}
		if err := e.reportTrace(lat, counts, inputs); err != nil {
			return err
		}
	}

	// Oracle: the streamed archive is byte for byte the batch archive
	// of the same run under the same job ID.
	if firstID != "" {
		batch := st.tpl.spec
		batch.JobID = firstID
		out, err := platforms.RunContext(context.Background(), batch)
		if err != nil {
			return err
		}
		if err := checkOutput(batch, out); err != nil {
			e.incorrect("%v", err)
		}
		var want bytes.Buffer
		a := archive.New()
		a.Add(out.Job)
		if err := a.Save(&want); err != nil || !bytes.Equal(want.Bytes(), firstArchive) {
			e.incorrect("job %s: streamed archive differs from the batch archive (%d vs %d bytes)", firstID, len(firstArchive), want.Len())
		}
	}
	return nil
}
