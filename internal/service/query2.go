package service

// Analytical query engine v2 surface: GET /query2 executes cross-job
// aggregate queries ("from jobs where ... group by ...") over the
// frames the store holds in memory, without materializing archive.Job
// trees. Per job the engine first consults the job's zone map; if it
// proves no row can match, the job is pruned, and otherwise its frame
// is aggregated — every field a single-job query reads, info. and
// derived. included. Jobs are aggregated by one worker per core, each
// partial landing in its job's slot so the result does not depend on
// scheduling. GET /internal/query2 returns the raw per-job partials for
// the router's scatter-gather — the merge is the same canonical fold
// either way, so a routed response is byte-identical to a single-node
// one.
//
// /query2 is the one read whose rendered answers are memoized, under the
// store generation (respcache.go). The X-Granula-Scanned/Pruned headers
// describe one actual execution, so only a rendered answer carries
// them; a memo hit executed nothing and carries neither.

import (
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"

	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/sim"
)

// aggQuery parses the /query2 query in ?q= (query.ParseQuery2),
// writing the HTTP error itself when the query is unusable.
func (s *Server) aggQuery(w http.ResponseWriter, r *http.Request) (*query.Query, string, bool) {
	raw := r.URL.Query().Get("q")
	q, err := query.ParseQuery2(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil, "", false
	}
	return q, raw, true
}

// localPartials computes one partial aggregate per stored job, in job
// ID order.
func (s *Server) localPartials(q *query.Query) ([]query.JobPartial, error) {
	ids := s.store.ids()
	return inOrder(len(ids), func(i int) (query.JobPartial, bool, error) {
		return s.partialForJob(q, ids[i])
	})
}

// inOrder calls part for indexes 0..n-1 through sim.HostPool.ForkJoin
// over runtime.GOMAXPROCS(0) goroutines and returns the ok results in
// index order: the /query2 fan-out over jobs and the store's reopen use
// it. Each call writes only its own slot, so the result is the serial
// loop's; on failure the error returned is the lowest index's, which is
// also what the serial loop returns. An index above a failed one is
// skipped; every index below it still runs. A panicking part re-panics
// on the caller once every index has finished, where a handler's
// recover turns it into a 500. With one goroutine it is the serial loop.
func inOrder[T any](n int, part func(i int) (T, bool, error)) ([]T, error) {
	type slot struct {
		v   T
		ok  bool
		err error
	}
	slots := make([]slot, n)
	var lowestFailed atomic.Int64
	lowestFailed.Store(int64(n))
	sim.NewHostPool(runtime.GOMAXPROCS(0)).ForkJoin(n, func(i int) {
		if int64(i) > lowestFailed.Load() {
			return
		}
		sl := &slots[i]
		if sl.v, sl.ok, sl.err = part(i); sl.err == nil {
			return
		}
		for f := lowestFailed.Load(); int64(i) < f; f = lowestFailed.Load() {
			if lowestFailed.CompareAndSwap(f, int64(i)) {
				return
			}
		}
	})
	out := make([]T, 0, n)
	for _, sl := range slots {
		if sl.err != nil {
			return nil, sl.err
		}
		if sl.ok {
			out = append(out, sl.v)
		}
	}
	return out, nil
}

// partialForJob aggregates one job. ok is false when the job vanished
// between listing and reading (a concurrent delete) — it simply
// contributes nothing, exactly as if the listing had run later. One get
// yields the frame and the zone map of one publish; a pruned job is
// never scanned.
func (s *Server) partialForJob(q *query.Query, id string) (query.JobPartial, bool, error) {
	sj, ok := s.store.get(id)
	if !ok {
		return query.JobPartial{}, false, nil
	}
	if q.PruneAgainst(sj.Stats) {
		return query.PrunedPartial(id), true, nil
	}
	jp, err := q.AggregateFrame(sj.frame())
	return jp, err == nil, err
}

// handleQuery2 serves GET /query2: cross-job aggregation over the
// stored frames, merged with the canonical fold and rendered
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
