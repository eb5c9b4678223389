package service

// Analytical query engine v2 surface: GET /query2 executes cross-job
// aggregate queries ("from jobs where ... group by ...") over the
// store's on-disk columnar segments without materializing archive.Job
// trees. Per job the engine reads only the segment's stats footer
// first; if the query's zone maps prove no row can match, the body is
// never touched (the archivedb ColSegTailReads/ColSegFullReads
// counters make that observable). GET /internal/query2 returns the
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
	"strconv"

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

// localPartials computes one partial aggregate per stored job, using
// the segment fast path (tail read -> zone-map prune -> body decode)
// and falling back to the in-memory columns when a segment is
// missing, stale, or corrupt (pre-v2 archives, crash before rebuild).
func (s *Server) localPartials(q *query.Query) ([]query.JobPartial, error) {
	ids := s.store.ids()
	partials := make([]query.JobPartial, 0, len(ids))
	for _, id := range ids {
		jp, ok, err := s.partialForJob(q, id)
		if err != nil {
			return nil, err
		}
		if ok {
			partials = append(partials, jp)
		}
	}
	return partials, nil
}

// partialForJob aggregates one job. ok is false when the job vanished
// between listing and reading (a concurrent delete) — it simply
// contributes nothing, exactly as if the listing had run later.
func (s *Server) partialForJob(q *query.Query, id string) (query.JobPartial, bool, error) {
	version := s.store.version(id)
	if db := s.store.db; db != nil && version != 0 {
		// Stats footer first: a pruned segment costs one small tail
		// read and its column blocks are never touched.
		if tail, size, ok, err := db.GetSegmentTail(id, query.SegmentTailHint); err == nil && ok {
			st, serr := query.DecodeSegmentStats(tail, size)
			if serr == query.ErrSegmentTail {
				// Footer larger than the hint window (pathological
				// symbol inventory); fall back to a full read.
				if blob, ok2, err2 := db.GetSegment(id); err2 == nil && ok2 {
					if f, fst, derr := query.DecodeSegment(blob); derr == nil && fst.JobVersion == version {
						jp, aerr := q.AggregateFrame(f)
						return jp, aerr == nil, aerr
					}
				}
			} else if serr == nil && st.FormatVersion == query.SegmentVersion && st.JobVersion == version {
				if q.PruneAgainst(st) {
					return query.PrunedPartial(id), true, nil
				}
				if blob, ok2, err2 := db.GetSegment(id); err2 == nil && ok2 {
					if f, fst, derr := query.DecodeSegment(blob); derr == nil && fst.JobVersion == version {
						jp, aerr := q.AggregateFrame(f)
						return jp, aerr == nil, aerr
					}
				}
			}
		}
	}
	// Lazy rebuild: no usable segment, so aggregate the in-memory
	// columns and persist a fresh segment for the next query.
	sj, ok := s.store.get(id)
	if !ok {
		return query.JobPartial{}, false, nil
	}
	s.store.writeSegment(id, sj, version)
	jp, err := q.AggregateFrame(sj.Cols.Frame(jobMeta(id, sj.Summary)))
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
