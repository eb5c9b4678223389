package main

import (
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"time"

	"repro/internal/shard"
)

// clusterNodes is the simulated cluster size of a cluster-rw job: small,
// so that the host's two cores do not drown the commit and replication
// latency the workload is there to price.
const clusterNodes = 2

type clusterUnderTest struct {
	c   *cluster
	dir string
	cl  *client
}

func startClusterUnderTest(dir string, clients int) (*clusterUnderTest, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c, err := startCluster(dir, 3, 2, 2)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	cu := &clusterUnderTest{c: c, dir: dir, cl: newClient(c.url, clients)}
	if _, err := cu.cl.getOK("/healthz"); err != nil {
		cu.stop()
		return nil, err
	}
	return cu, nil
}

func (cu *clusterUnderTest) stop() {
	cu.cl.close()
	cu.c.stop()
	os.RemoveAll(cu.dir)
}

// scrapeShards totals the shards' /metrics.
func (cu *clusterUnderTest) scrapeShards() (counters, error) {
	total := counters{}
	for _, n := range cu.c.shards {
		cl := newClient(n.url, 1)
		c, err := cl.scrape()
		cl.close()
		if err != nil {
			return nil, err
		}
		total.add(c)
	}
	return total, nil
}

// checkCopies is the replication oracle: every acknowledged job is held
// by at least the write quorum of shards.
func (cu *clusterUnderTest) checkCopies(e *env, ids []string) {
	clients := make([]*client, len(cu.c.shards))
	for i, n := range cu.c.shards {
		clients[i] = newClient(n.url, 1)
		defer clients[i].close()
	}
	for _, id := range ids {
		copies := 0
		for _, cl := range clients {
			if r, err := cl.get(shard.ExportPathPrefix + id); err == nil && r.status == http.StatusOK {
				copies++
			}
		}
		if copies < cu.c.m.WriteQuorum {
			e.incorrect("job %s is on %d shards, the write quorum is %d", id, copies, cu.c.m.WriteQuorum)
			return
		}
	}
}

// routeOverhead is the through-router latency of a read minus the
// latency of the same request sent straight to the shard that served
// it. Both are timed on a repeat of the request, so both are response
// cache hits and the difference is the router.
func (cu *clusterUnderTest) routeOverhead(mix *readMix, seed int64, n int) float64 {
	byURL := map[string]*client{}
	for _, nd := range cu.c.m.Shards {
		byURL[nd.ID] = newClient(nd.URL, 1)
		defer byURL[nd.ID].close()
	}
	var over []float64
	for i := 0; i < n; i++ {
		_, path, _ := mix.pick(newOpRand(seed, 1<<30+i))
		first, err := cu.cl.get(path)
		if err != nil || first.status != http.StatusOK {
			continue
		}
		direct := byURL[first.header.Get(shard.ShardHeader)]
		if direct == nil {
			continue
		}
		d, err := direct.get(path)
		if err != nil || d.status != http.StatusOK {
			continue
		}
		// Follower reads rotate over the replicas: repeat through the
		// router until the same shard answers again.
		for try := 0; try < 4; try++ {
			again, err := cu.cl.get(path)
			if err != nil || again.status != http.StatusOK {
				break
			}
			if again.header.Get(shard.ShardHeader) == first.header.Get(shard.ShardHeader) {
				over = append(over, ms(again.dur-d.dur))
				break
			}
		}
	}
	return median(over)
}

// gatherOverhead is the router's /query2 latency minus the slowest
// shard's /internal/query2 latency for the same query.
func (cu *clusterUnderTest) gatherOverhead(load *query2Load, n int) float64 {
	var shards []*client
	for _, nd := range cu.c.m.Shards {
		cl := newClient(nd.URL, 1)
		defer cl.close()
		shards = append(shards, cl)
	}
	var over []float64
	for i := 0; i < n; i++ {
		q := "?q=" + url.QueryEscape(load.scanQuery())
		routed, err := cu.cl.get(shard.Query2Path + q)
		if err != nil || routed.status != http.StatusOK {
			continue
		}
		var slowest time.Duration
		for _, cl := range shards {
			if r, err := cl.get(shard.InternalQuery2Path + q); err == nil && r.status == http.StatusOK {
				slowest = max(slowest, r.dur)
			}
		}
		over = append(over, ms(routed.dur-slowest))
	}
	return median(over)
}

func runClusterRW(e *env) error {
	const clients = 2
	cu, err := startClusterUnderTest(filepath.Join(e.tmp, "cluster"), clients)
	if err != nil {
		return err
	}
	defer cu.stop()

	log := newWriteLog()
	loads := make([]*query2Load, clients)
	for w := range loads {
		loads[w] = &query2Load{cl: cu.cl, unique: w * 100_000, etag: map[string]string{}, answers: map[string]uint32{}, asOf: map[string]int{}}
	}
	// Ops per measured second, from the reference box's ≈60 jobs/s
	// through the router, ≈3,500 reads/s and ≈80 ms a scatter-gather:
	// about 5 s of jobs, 1.2 s of reads and 3 s of scans at --seconds 10
	// (300 jobs, 4,000 reads, 40 scans).
	// Job IDs do not carry the seed, so the ring places the jobs of
	// every run on the same shards.
	next := 0
	writePhase := func(tr *Tracer, frac float64) (*samples, int, loopTime) {
		smp := newSamples(clients)
		n := e.ops(30, frac)
		took := closedLoop(clients, n, next, func(w, i int) {
			req := writeReq("c", e.seed, i, clusterNodes)
			body, jt, err := cu.cl.runJob(tr, i, req)
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
	writePhase(nil, warmUp) // discarded
	e.measuringFrom()

	beforeShards, err := cu.scrapeShards()
	if err != nil {
		return err
	}
	beforeRouter, err := cu.cl.scrape()
	if err != nil {
		return err
	}
	var lat []float64
	var mix *readMix
	jobs := 0
	for _, p := range e.passes() {
		// Submits, each followed by an archive read.
		written, n, wrote := writePhase(p.tr, p.frac)
		e.attempted(n)
		jobs += n

		// Reads of the serve-read-mixed mix over the jobs written so far.
		mix = newReadMix(append([]string(nil), log.acked...))
		readers := []*reader{newReader(cu.cl), newReader(cu.cl)}
		reads := newSamples(clients)
		n = e.ops(400, p.frac)
		read := closedLoop(clients, n, next, func(w, i int) {
			_, path, conditional := mix.pick(newOpRand(e.seed, i))
			d, err := readers[w].read(p.tr, i, path, conditional)
			if err != nil {
				e.opFailed(err)
				return
			}
			reads.add(w, "read", d)
		})
		next += n
		e.attempted(n)

		// Scatter-gathered /query2 scans.
		scans := newSamples(clients)
		for _, l := range loads {
			l.jobs = len(log.acked)
		}
		n = e.ops(4, p.frac)
		closedLoop(clients, n, 0, func(w, i int) {
			d, err := loads[w].issue(p.tr, i, "query2.scan", loads[w].scanQuery(), false, 0)
			if err != nil {
				e.opFailed(err)
				return
			}
			scans.add(w, "scan", d)
		})
		e.attempted(n)

		lat = append(lat, kindBalancedMedian(written.byKind()))
		if e.trace {
			continue
		}
		e.set("job_ms_p50", lat[0])
		e.set("op_ms_p50", lat[0])
		e.set("jobs_per_s", wrote.perSecond())
		e.set("read_ms_p50", percentile(reads.of("read"), 50))
		e.set("reads_per_s", read.perSecond())
		e.set("query2_scan_ms_p50", percentile(scans.of("scan"), 50))
		e.set("live_heap_mb", liveHeapMB())
	}

	if e.trace {
		afterShards, err := cu.scrapeShards()
		if err != nil {
			return err
		}
		afterRouter, err := cu.cl.scrape()
		if err != nil {
			return err
		}
		counts := counterInputs{
			node: afterShards.delta(beforeShards), router: afterRouter.delta(beforeRouter),
			jobs: jobs, rowsPerGroup: loads[0].rowsPerGroup(),
		}
		e.set("shard.route_overhead_ms", cu.routeOverhead(mix, e.seed, e.scaled(100)))
		e.set("shard.query2_gather_ms", cu.gatherOverhead(loads[0], e.scaled(10)))
		inputs, err := log.layerInputs()
		if err != nil {
			return err
		}
		if err := e.reportTrace(lat, counts, inputs); err != nil {
			return err
		}
	}

	// Oracles: router bytes are the harness's own, every job has its
	// quorum of copies, and every scatter-gathered answer is what the
	// tree walk over all acknowledged jobs gives.
	outputs := log.checkAgainstHarness(e)
	cu.checkCopies(e, log.acked)
	var stored []oracleJob
	for _, id := range log.acked {
		key := log.keyOf[id]
		if out := outputs[key]; out != nil {
			meta := metaOf(id, summaryOf(id, log.first[key].req.Algorithm, out))
			stored = append(stored, oracleJob{id: id, tree: key, job: out.Job, meta: meta})
		}
	}
	for _, l := range loads {
		l.checkOracle(e, stored)
	}
	return nil
}
