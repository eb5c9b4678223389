package service

// Analytical query engine v2 surface: GET /query2 executes cross-job
// aggregate queries ("from jobs where ... group by ...") over the
// store's on-disk columnar segments without materializing archive.Job
// trees. Per job the engine first consults the zone maps the store
// keeps in memory; if they prove no row can match, the segment file is
// never opened, and otherwise it is read once (the archivedb
// ColSegFullReads counter makes both observable). Jobs are aggregated
// by one worker per core, each partial landing in its job's slot so the
// result does not depend on scheduling. GET /internal/query2 returns the
// raw per-job partials for the router's scatter-gather — the merge is
// the same canonical fold either way, so a routed response is
// byte-identical to a single-node one.
//
// /query2 responses are cached under the store generation like every
// other read. The X-Granula-Scanned/Pruned headers describe one
// actual execution, so they appear only when the handler runs (cache
// misses); a cache hit executed nothing and carries neither.

import (
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/query"
	"repro/internal/shard"
)

// aggQuery parses and validates a v2 aggregate query from ?q=,
// writing the HTTP error itself when the query is unusable.
func (s *Server) aggQuery(w http.ResponseWriter, r *http.Request) (*query.Query, string, bool) {
	raw := r.URL.Query().Get("q")
	if raw == "" {
		writeError(w, http.StatusBadRequest, "need a q= query parameter")
		return nil, "", false
	}
	q, err := query.Parse(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil, "", false
	}
	if !q.IsAggregate() || !q.FromJobs() {
		writeError(w, http.StatusBadRequest,
			"query2 needs a cross-job aggregate query: from jobs [where ...] group by ... (or top k ... by ...)")
		return nil, "", false
	}
	if q.NeedsOps() {
		writeError(w, http.StatusBadRequest,
			"info./derived. fields require operation details not stored in columnar segments; use /jobs/{id}/query")
		return nil, "", false
	}
	return q, raw, true
}

// localPartials computes one partial aggregate per stored job, in job
// ID order.
func (s *Server) localPartials(q *query.Query) ([]query.JobPartial, error) {
	ids := s.store.ids()
	return partialsInOrder(len(ids), func(i int) (query.JobPartial, bool, error) {
		return s.partialForJob(q, ids[i])
	})
}

// partialsInOrder calls part for indexes 0..n-1 over
// runtime.GOMAXPROCS(0) workers and returns the ok partials in index
// order. Workers claim indexes in order and each writes only its own
// slot, so the result is the serial loop's; on failure the error
// returned is the lowest index's, which is also what the serial loop
// returns. After a failure no new index is claimed — every index below
// the failing one was already. With one worker it is the serial loop.
func partialsInOrder(n int, part func(i int) (query.JobPartial, bool, error)) ([]query.JobPartial, error) {
	type slot struct {
		jp  query.JobPartial
		ok  bool
		err error
	}
	slots := make([]slot, n)
	var next atomic.Int64
	var failed atomic.Bool
	work := func() {
		for !failed.Load() {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			sl := &slots[i]
			if sl.jp, sl.ok, sl.err = part(i); sl.err != nil {
				failed.Store(true)
			}
		}
	}
	if workers := min(runtime.GOMAXPROCS(0), n); workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	partials := make([]query.JobPartial, 0, n)
	for _, sl := range slots {
		if sl.err != nil {
			return nil, sl.err
		}
		if sl.ok {
			partials = append(partials, sl.jp)
		}
	}
	return partials, nil
}

// partialForJob aggregates one job. ok is false when the job vanished
// between listing and reading (a concurrent delete) — it simply
// contributes nothing, exactly as if the listing had run later.
//
// One get yields the columns, the zone map and the version of one
// publish. A pruned job costs no I/O; a scanned one costs exactly one
// segment read, whose CRCs and version are checked. A missing, corrupt
// or older segment (v1 layout, crash before rebuild) falls back to
// the in-memory columns and is rewritten for the next query; a newer
// one means a Put is publishing right now and is left alone.
func (s *Server) partialForJob(q *query.Query, id string) (query.JobPartial, bool, error) {
	sj, ok := s.store.get(id)
	if !ok {
		return query.JobPartial{}, false, nil
	}
	if q.PruneAgainst(sj.Stats) {
		return query.PrunedPartial(id), true, nil
	}
	if db := s.store.db; db != nil {
		rebuild := true
		if blob, ok, err := db.GetSegment(id); err == nil && ok {
			if f, st, err := query.DecodeSegment(blob); err == nil {
				if st.JobVersion == sj.Version {
					jp, err := q.AggregateFrame(f)
					return jp, err == nil, err
				}
				rebuild = st.JobVersion < sj.Version
			}
		}
		if rebuild {
			s.store.writeSegment(id, sj)
		}
	}
	jp, err := q.AggregateFrame(sj.frame())
	return jp, err == nil, err
}

// handleQuery2 serves GET /query2: cross-job aggregation over
// columnar segments, merged with the canonical fold and rendered
// byte-deterministically.
func (s *Server) handleQuery2(w http.ResponseWriter, r *http.Request) {
	if err := s.faults.Fail(siteQuery); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	q, raw, ok := s.aggQuery(w, r)
	if !ok {
		return
	}
	partials, err := s.localPartials(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp, err := q.MergePartials(raw, "jobs", "", partials)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	body, err := query.RenderAggResponse(resp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.metrics.query2Queries.Inc()
	s.metrics.query2Scanned.Add(uint64(resp.Scanned))
	s.metrics.query2Pruned.Add(uint64(resp.Pruned))
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(shard.ScannedHeader, strconv.Itoa(resp.Scanned))
	w.Header().Set(shard.PrunedHeader, strconv.Itoa(resp.Pruned))
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// internalQuery2Response is the scatter-gather wire format: one
// partial per local job, pre-sorted by the store's ID order. The
// router concatenates partials from every shard and re-merges; the
// merge sorts and dedupes, so shard arrival order cannot matter.
type internalQuery2Response struct {
	Shard    string             `json:"shard,omitempty"`
	Partials []query.JobPartial `json:"partials"`
}

// handleInternalQuery2 serves GET /internal/query2 for the router.
func (s *Server) handleInternalQuery2(w http.ResponseWriter, r *http.Request) {
	q, _, ok := s.aggQuery(w, r)
	if !ok {
		return
	}
	partials, err := s.localPartials(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	scanned, pruned := 0, 0
	for _, jp := range partials {
		if jp.Pruned {
			pruned++
		} else {
			scanned++
		}
	}
	s.metrics.query2Queries.Inc()
	s.metrics.query2Scanned.Add(uint64(scanned))
	s.metrics.query2Pruned.Add(uint64(pruned))
	w.Header().Set(shard.ScannedHeader, strconv.Itoa(scanned))
	w.Header().Set(shard.PrunedHeader, strconv.Itoa(pruned))
	writeJSON(w, http.StatusOK, internalQuery2Response{Shard: s.shardID, Partials: partials})
}
