package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/stream"
)

// Fault-injection points on the streaming layer.
const (
	// siteIngest is hit at the top of POST /ingest/{id}.
	siteIngest = "http.ingest"
	// siteWatch is hit at the top of GET /watch/{id}.
	siteWatch = "http.watch"
)

// liveHeader marks a response computed from a still-streaming job. The
// validator relays marked bodies untagged and strips the marker: a live
// job's bytes change between requests without the store generation
// moving. Once the job seals and its archive is published, responses
// lose the marker and carry an ETag.
const liveHeader = "X-Granula-Live"

// maxIngestBytes caps one POST /ingest batch body (JSON lines).
const maxIngestBytes = 4 << 20

// ingestResponse acknowledges one ingest batch. State is "streaming"
// while the job is live, "sealed" when a non-done seal retired the
// stream without an archive, and "archived" once the sealed archive is
// durable and published.
type ingestResponse struct {
	JobID      string `json:"jobId"`
	Accepted   int    `json:"accepted"`
	Duplicates int    `json:"duplicates"`
	LastSeq    uint64 `json:"lastSeq"`
	State      string `json:"state"`
}

// StreamProgress is the status view of a live streamed job.
type StreamProgress struct {
	Events       int    `json:"events"`
	CompletedOps int    `json:"completedOps"`
	OpenOps      int    `json:"openOps"`
	LastSeq      uint64 `json:"lastSeq"`
}

// handleIngest serves POST /ingest/{id}: one batch of JSON-lines events
// for an in-flight job. The contract is append-only and idempotent —
// events at or below the accepted sequence are skipped, a gap is
// rejected with 409 plus the expected sequence, and the 200 ack is sent
// only after the accepted events are durable in the WAL (so a crash
// after an ack never loses them). Backpressure (full per-job buffer or
// too many live jobs) answers 429 + Retry-After.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if err := s.faults.Fail(siteIngest); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	id := r.PathValue("id")
	if err := checkJobID(id); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxIngestBytes)
	events, err := stream.DecodeEvents(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if _, liveNow := s.streams.Get(id); !liveNow {
		if _, archived := s.store.get(id); archived {
			// The stream was sealed and published; a client replaying its
			// last acked batch (e.g. the ack was lost) gets a terminal
			// success instead of a confusing gap error.
			writeJSON(w, http.StatusOK, ingestResponse{
				JobID: id, Duplicates: len(events), State: "archived",
			})
			return
		}
	}
	res, err := s.streams.Ingest(id, events)
	if err != nil {
		s.metrics.ingestRejected.Inc()
		var gap *stream.GapError
		switch {
		case errors.As(err, &gap):
			w.Header().Set("X-Granula-Expected-Seq", strconv.FormatUint(gap.Expected, 10))
			writeError(w, http.StatusConflict, "%v", err)
		case errors.Is(err, stream.ErrSealed):
			writeError(w, http.StatusConflict, "%v", err)
		case errors.Is(err, stream.ErrOverflow), errors.Is(err, stream.ErrTooManyJobs):
			s.metrics.shed.Inc()
			s.setRetryAfter(w)
			writeError(w, http.StatusTooManyRequests, "%v", err)
		default:
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	if res.LastSeq > 0 {
		if err := s.persistStreamTail(id); err != nil {
			// The events are applied in memory but not durable, so the
			// batch is NOT acked; the client's retry replays it (a no-op
			// in memory) and re-attempts the persist.
			s.setRetryAfter(w)
			writeError(w, http.StatusServiceUnavailable, "persist stream batch: %v", err)
			return
		}
	}
	s.metrics.ingestBatches.Inc()
	s.metrics.ingestEvents.Add(uint64(res.Accepted))
	state := "streaming"
	if j, ok := s.streams.Get(id); ok {
		if sealed, _ := j.Sealed(); sealed {
			st, ferr := s.finalizeStream(r.Context(), id, j)
			if errors.Is(ferr, errSealRejected) {
				// The stream cannot assemble into a valid archive; retire
				// it so the client is not stuck retrying.
				s.dropStream(id)
				writeError(w, http.StatusUnprocessableEntity, "%v", ferr)
				return
			}
			if ferr != nil {
				// Storage, breaker or quorum: the stream stays live and
				// sealed, and the client's replay publishes it again.
				s.setRetryAfter(w)
				writeError(w, http.StatusServiceUnavailable, "%v", ferr)
				return
			}
			state = st
		}
	}
	writeJSON(w, http.StatusOK, ingestResponse{
		JobID: id, Accepted: res.Accepted, Duplicates: res.Duplicates,
		LastSeq: res.LastSeq, State: state,
	})
}

// persistStreamTail makes every accepted event of a live job durable up
// to its current high-water mark, appending one stream-batch WAL record
// covering (durable, lastSeq]. Concurrent callers may persist
// overlapping tails under different keys; recovery replay is idempotent
// so overlap is harmless.
func (s *Server) persistStreamTail(id string) error {
	have := s.store.durableSeq(id)
	j, ok := s.streams.Get(id)
	if !ok {
		return nil
	}
	evs := j.EventsAfter(have)
	if len(evs) == 0 {
		return nil
	}
	last := evs[len(evs)-1].Seq
	payload, err := stream.EncodeEvents(evs)
	if err != nil {
		return err
	}
	return s.store.appendStreamBatch(id, last, payload)
}

// errSealRejected marks a sealed stream whose events cannot assemble
// into a valid archive: the one seal failure a replay cannot fix.
var errSealRejected = errors.New("seal rejected")

// finalizeStream retires a sealed live job. A done seal finishes the
// stream's operation tree into an archive (BuildArchive) and publishes
// it through the executor's one publish path, so once the stream is
// acked "archived" it is durable and, in a cluster, held by the write
// quorum, exactly as an executor job is once "done"; only then do its
// redundant stream batches go. A tree that cannot assemble fails with
// errSealRejected; any other error leaves the stream live and sealed.
// Failed/canceled seals retire the stream without an archive. Returns
// the terminal ingest state.
func (s *Server) finalizeStream(ctx context.Context, id string, j *stream.Job) (string, error) {
	_, sealState := j.Sealed()
	if sealState == stream.StateDone {
		job, err := j.BuildArchive()
		if err != nil {
			return "", fmt.Errorf("%w: %v", errSealRejected, err)
		}
		_, algorithm := j.Meta()
		if err := s.exec.publish(ctx, job, Summarize(job, algorithm)); err != nil {
			return "", err
		}
		s.dropStream(id)
		return "archived", nil
	}
	s.dropStream(id)
	return "sealed", nil
}

// dropStream removes a job's live state and its durable stream
// batches.
func (s *Server) dropStream(id string) {
	s.store.deleteStreamBatches(id)
	s.streams.Remove(id)
}

// recoverStreams replays the acked ingest batches found in the WAL at
// startup: jobs whose archive already exists drop their now-redundant
// batches; everything else is folded back into live jobs (re-tailable
// and re-ingestable exactly where the stream left off), and jobs that
// were sealed but not yet published complete their publish. Corrupt or
// stale batch sets are discarded — they were never acked as archives.
func (s *Server) recoverStreams() {
	batches := s.store.takeRecoveredStreams()
	if len(batches) == 0 {
		return
	}
	// Batches arrive sorted by (job, lastSeq); walk one job at a time.
	for i := 0; i < len(batches); {
		id := batches[i].JobID
		jEnd := i
		for jEnd < len(batches) && batches[jEnd].JobID == id {
			jEnd++
		}
		group := batches[i:jEnd]
		i = jEnd

		if _, archived := s.store.get(id); archived {
			s.store.deleteStreamBatches(id)
			continue
		}
		replayOK := true
		for _, b := range group {
			events, err := stream.DecodeAcked(bytes.NewReader(b.Payload))
			if err != nil {
				replayOK = false
				break
			}
			if _, err := s.streams.Ingest(id, events); err != nil {
				replayOK = false
				break
			}
		}
		j, live := s.streams.Get(id)
		if !replayOK || !live {
			s.dropStream(id)
			continue
		}
		if sealed, _ := j.Sealed(); sealed {
			// Crash landed between the seal's durability and the archive
			// publish; finish the publish now. A failure leaves the job
			// live and sealed, retried on the client's next ingest.
			s.finalizeStream(context.Background(), id, j) //nolint:errcheck
		}
	}
}

// watchCursor reads a /watch request's cursor: the sequence number after
// which to resume, from Last-Event-ID, else ?from=, else 0. A malformed
// cursor answers 400 and returns false.
func watchCursor(w http.ResponseWriter, r *http.Request) (uint64, bool) {
	name, raw := "Last-Event-ID", r.Header.Get("Last-Event-ID")
	if raw == "" {
		name, raw = "from", r.URL.Query().Get("from")
	}
	if raw == "" {
		return 0, true
	}
	v, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad %s %q", name, raw)
		return 0, false
	}
	return v, true
}

// watchTarget finds what a /watch request tails and counts the
// connection: a live job, or for a job already sealed and published the
// seal event, the only fact its tail has left, so late watchers end
// cleanly. A job known but not streaming answers 409, anything else
// 404, and ok is false.
func (s *Server) watchTarget(w http.ResponseWriter, id string) (live *stream.Job, seal *stream.Event, ok bool) {
	if live, ok = s.streams.Get(id); ok {
		s.metrics.watchConns.Inc()
		return live, nil, true
	}
	if sj, archived := s.store.get(id); archived {
		s.metrics.watchConns.Inc()
		return nil, &stream.Event{
			Type: stream.TypeSeal, Time: sj.Summary.Runtime,
			Platform: sj.Summary.Platform, Algorithm: sj.Summary.Algorithm,
			State: stream.StateDone,
		}, true
	}
	if st, known := s.exec.jobState(id); known {
		writeError(w, http.StatusConflict, "job %q is %s, not streaming", id, st.Status)
	} else {
		writeError(w, http.StatusNotFound, "no job %q", id)
	}
	return nil, nil, false
}

// pollResponse is one long-poll batch: the events past the client's
// cursor (raw, not windowed), the new cursor to pass back as ?from=,
// and whether the stream has sealed (sealed + an empty batch means the
// client has everything and can stop polling).
type pollResponse struct {
	JobID   string         `json:"jobId"`
	Count   int            `json:"count"`
	Events  []stream.Event `json:"events"`
	LastSeq uint64         `json:"lastSeq"`
	Sealed  bool           `json:"sealed"`
	State   string         `json:"state"`
}

// defaultPollWait bounds how long a long-poll request parks waiting for
// new events before answering an empty batch.
const defaultPollWait = 10 * time.Second

// handleWatchPoll serves GET /watch/{id}?poll=1: the long-poll
// fallback to the SSE tail. The client passes its cursor via ?from=
// (or Last-Event-ID, same as SSE) and gets back every event after it;
// with nothing new yet the request parks up to ?wait= (default 10 s,
// capped at 60) and answers an empty batch on timeout, which the
// client just re-polls. Already-archived jobs answer a terminal sealed
// batch immediately.
func (s *Server) handleWatchPoll(w http.ResponseWriter, r *http.Request, id string) {
	from, ok := watchCursor(w, r)
	if !ok {
		return
	}
	wait := defaultPollWait
	if wq := r.URL.Query().Get("wait"); wq != "" {
		d, err := time.ParseDuration(wq)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad wait %q: %v", wq, err)
			return
		}
		if d < 0 {
			writeError(w, http.StatusBadRequest, "wait must not be negative")
			return
		}
		if d > time.Minute {
			d = time.Minute
		}
		wait = d
	}

	live, seal, ok := s.watchTarget(w, id)
	if !ok {
		return
	}
	if seal != nil {
		writeJSON(w, http.StatusOK, pollResponse{
			JobID: id, Count: 1, Events: []stream.Event{*seal}, Sealed: true, State: "archived",
		})
		return
	}

	sub := live.Subscribe()
	defer live.Unsubscribe(sub)
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for {
		// Sealed is read before the log, never after: a seal landing
		// between the two reads would otherwise answer "sealed" over a
		// batch that stops short of the seal event, and a client that
		// trusts "sealed + empty batch = done" would stop without it.
		sealed, _ := live.Sealed()
		if s.watchRace != nil {
			s.watchRace()
		}
		evs := live.EventsAfter(from)
		if len(evs) > 0 || sealed || wait == 0 {
			lastSeq := from
			if len(evs) > 0 {
				lastSeq = evs[len(evs)-1].Seq
			}
			if evs == nil {
				evs = []stream.Event{}
			}
			state := "streaming"
			if sealed {
				state = "sealed"
			}
			w.Header().Set(liveHeader, "1")
			writeJSON(w, http.StatusOK, pollResponse{
				JobID: id, Count: len(evs), Events: evs,
				LastSeq: lastSeq, Sealed: sealed, State: state,
			})
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-sub:
			continue
		case <-deadline.C:
		case <-s.closing:
		}
		// Out of time or shutting down: an empty batch at the same cursor.
		w.Header().Set(liveHeader, "1")
		writeJSON(w, http.StatusOK, pollResponse{
			JobID: id, Events: []stream.Event{}, LastSeq: from, State: "streaming",
		})
		return
	}
}

// handleWatch serves GET /watch/{id}: a Server-Sent-Events tail of a
// live job's stream. Frame IDs carry the event sequence number, so a
// dropped client resumes exactly with Last-Event-ID (or ?from=seq).
// With ?window=1s the tail switches to windowed aggregation: one frame
// per closed event-time window carrying op counts and per-mission phase
// durations, whose frame ID is the last folded sequence (resume works
// the same way). Idle connections get comment heartbeats. Watching an
// already archived job yields a single seal frame.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	if err := s.faults.Fail(siteWatch); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	id := r.PathValue("id")
	if r.URL.Query().Get("poll") == "1" {
		// Long-poll fallback for clients (and intermediaries) that cannot
		// hold an SSE stream open: one buffered JSON batch per request.
		s.handleWatchPoll(w, r, id)
		return
	}
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}

	var width float64
	if wq := r.URL.Query().Get("window"); wq != "" {
		d, err := time.ParseDuration(wq)
		if err != nil {
			// Also accept a bare float in seconds.
			secs, ferr := strconv.ParseFloat(wq, 64)
			if ferr != nil {
				writeError(w, http.StatusBadRequest, "bad window %q: %v", wq, err)
				return
			}
			d = time.Duration(secs * float64(time.Second))
		}
		if d <= 0 {
			writeError(w, http.StatusBadRequest, "window must be positive")
			return
		}
		width = d.Seconds()
	}
	from, ok := watchCursor(w, r)
	if !ok {
		return
	}
	live, seal, ok := s.watchTarget(w, id)
	if !ok {
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("Connection", "keep-alive")
	h.Set(liveHeader, "1")
	w.WriteHeader(http.StatusOK)
	if seal != nil {
		stream.WriteFrame(w, 0, "seal", seal) //nolint:errcheck
		return
	}
	flusher.Flush()

	sub := live.Subscribe()
	defer live.Unsubscribe(sub)
	var agg *stream.WindowAgg
	if width > 0 {
		agg = stream.NewWindowAgg(live, width)
	}
	hb := time.NewTicker(s.heartbeat)
	defer hb.Stop()
	cursor := from
	for {
		// Liveness is read before the log, never after: the final batch
		// and finalizeStream can land between the two reads, and a tail
		// that saw "still live, nothing new" followed by "retired" would
		// end without the seal frame sitting in the log it holds. Read in
		// this order, a retired job's log is already complete.
		cur, stillLive := s.streams.Get(id)
		if s.watchRace != nil {
			s.watchRace()
		}
		evs := live.EventsAfter(cursor)
		for _, e := range evs {
			cursor = e.Seq
			if agg == nil {
				if err := stream.WriteFrame(w, e.Seq, stream.EventFrameName(e), e); err != nil {
					return
				}
				continue
			}
			for _, win := range agg.Feed(e) {
				if err := stream.WriteFrame(w, win.LastSeq, "window", win); err != nil {
					return
				}
			}
			if e.Type == stream.TypeSeal {
				if err := stream.WriteFrame(w, e.Seq, "seal", e); err != nil {
					return
				}
			}
		}
		if len(evs) > 0 {
			flusher.Flush()
		}
		if sealed, _ := live.Sealed(); sealed && cursor >= live.LastSeq() {
			return
		}
		if !stillLive || cur != live {
			// Removed (archived or abandoned) with nothing left to send.
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-s.closing:
			return
		case <-sub:
		case <-hb.C:
			if err := stream.WriteHeartbeat(w); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}
