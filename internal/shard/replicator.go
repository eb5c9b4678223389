package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
)

// Cluster-internal wire protocol. These paths are served by every
// granula-serve shard (see internal/service) and consumed by the
// replicator and the router's read-repair; they are not part of the
// public API.
const (
	// ReplicatePath accepts a ReplicaRecord POST and applies it
	// idempotently (by job ID + version) to the shard's store.
	ReplicatePath = "/internal/replicate"
	// ExportPathPrefix + {id} returns the ReplicaRecord for a stored
	// job, the unit of replication and read-repair.
	ExportPathPrefix = "/internal/export/"
	// ClusterPath reports a node's shard identity and map version (on
	// shards) or the full membership with live health (on the router).
	ClusterPath = "/cluster"
	// ShardHeader names the shard that served a proxied response, so
	// clients can attribute a response without parsing bodies.
	ShardHeader = "X-Granula-Shard"

	// Query2Path is the public analytical endpoint (?q= holds a v2
	// aggregate query); InternalQuery2Path returns the per-job partial
	// aggregates the router's scatter-gather merges.
	Query2Path         = "/query2"
	InternalQuery2Path = "/internal/query2"

	// ScannedHeader/PrunedHeader report how many jobs a v2 query
	// scanned vs skipped via zone maps. Execution detail, so it travels
	// in headers — response bodies stay byte-identical across the frame
	// scan, the tree-walk oracle, and the router merge.
	ScannedHeader = "X-Granula-Scanned"
	PrunedHeader  = "X-Granula-Pruned"
)

// ReplicaRecord is the unit of replication: one job's persisted payload
// (the exact bytes the primary wrote to its archivedb, so every replica
// stores byte-identical records) plus the version that makes replays
// idempotent — a receiver at version >= Version acks without rewriting.
type ReplicaRecord struct {
	ID      string          `json:"id"`
	Version uint64          `json:"version"`
	Payload json.RawMessage `json:"payload"`
}

// Replicator is the shard-side write fan-out: after a job's archive is
// durable locally, ReplicateJob pushes the record to the job's other
// replicas and blocks until the write quorum is met. It is safe for
// concurrent use.
type Replicator struct {
	self     string
	m        *Map
	peer     peerClient
	metrics  *ReplMetrics
	hints    HintJournal
	det      *Detector
	selfheal *SelfHealMetrics
}

// ReplicatorOptions tunes NewReplicator; zero values select defaults.
type ReplicatorOptions struct {
	// Client issues the replication POSTs; nil selects a client with a
	// 30 s timeout. Tests swap in partitioned transports here.
	Client *http.Client
	// Metrics receives replication counters; nil creates a private set
	// (still reachable via Metrics()).
	Metrics *ReplMetrics
	// Hints, when set, enables hinted handoff (sloppy quorum): a
	// follower push that fails is journaled durably, the journaled hint
	// counts as an ack toward the write quorum, and the drainer replays
	// it when the peer returns. Without a journal the replicator keeps
	// the strict quorum semantics — a missed follower is just a miss.
	Hints HintJournal
	// Detector, when set, short-circuits pushes to followers already
	// marked Down: the write goes straight to the hint journal instead
	// of waiting out a connection timeout on a corpse.
	Detector *Detector
	// SelfHeal receives hint-recording counters; nil creates a private
	// set.
	SelfHeal *SelfHealMetrics
}

// NewReplicator builds the fan-out for one shard (self) over the map.
func NewReplicator(self string, m *Map, opts ReplicatorOptions) (*Replicator, error) {
	if _, ok := m.lookup(self); !ok {
		return nil, fmt.Errorf("shard: replicator self %q is not in the map", self)
	}
	mt := opts.Metrics
	if mt == nil {
		mt = newReplMetrics()
	}
	return &Replicator{
		self: self, m: m, peer: newPeerClient(opts.Client, 30*time.Second), metrics: mt,
		hints: opts.Hints, det: opts.Detector, selfheal: orPrivate(opts.SelfHeal),
	}, nil
}

// Metrics returns the replicator's counters.
func (r *Replicator) Metrics() *ReplMetrics { return r.metrics }

// quorumError reports a write that could not reach its quorum: how many
// acks were collected (the local durable write counts as one), how many
// durable hints were journaled toward it, and the per-shard failures.
type quorumError struct {
	Acks   int
	Hinted int
	Quorum int
	Errs   []string
}

func (e *quorumError) Error() string {
	return fmt.Sprintf("shard: write quorum not reached: %d/%d acks (%d hinted) (%s)",
		e.Acks, e.Quorum, e.Hinted, strings.Join(e.Errs, "; "))
}

// ReplicateJob fans one durable job out to its replica set and returns
// nil once WriteQuorum acks exist (the caller's local persist is the
// first ack). Every follower is attempted even after the quorum is met
// — a healthy cluster converges to R full copies on the write path, not
// just W — but the call returns as soon as the quorum outcome is known.
//
// With a hint journal configured the quorum is sloppy: a follower push
// that fails (or is skipped because the detector marked the follower
// Down) journals the record as a durable hint instead, and the hint
// counts as an ack — "done implies W durable copies" still holds, with
// the hint as the W-th copy until the drainer delivers it. Without a
// journal, followers that miss the write are caught up later by
// read-repair and anti-entropy but do not count toward the quorum.
func (r *Replicator) ReplicateJob(ctx context.Context, id string, version uint64, payload []byte) error {
	start := time.Now()
	outcome := func(reached bool) {
		r.metrics.seconds.Observe(time.Since(start).Seconds())
		pick(reached, r.metrics.quorumReached, r.metrics.quorumMissed).Inc()
	}
	owners := r.m.owners(id)
	followers := make([]Node, 0, len(owners))
	acks := 1 // the local fsynced persist
	for _, n := range owners {
		if n.ID != r.self {
			followers = append(followers, n)
		}
	}
	need := r.m.WriteQuorum - acks
	if need <= 0 && len(followers) == 0 {
		outcome(true)
		return nil
	}

	rec, err := json.Marshal(ReplicaRecord{ID: id, Version: version, Payload: payload})
	if err != nil {
		return fmt.Errorf("shard: encode replica %q: %w", id, err)
	}

	type result struct {
		node   Node
		hinted bool
		err    error
	}
	results := make(chan result, len(followers))
	for _, n := range followers {
		go func(n Node) {
			var err error
			if r.det != nil && r.det.isDown(n.ID) {
				// Known corpse: don't wait out a transport timeout, go
				// straight to the hint path below.
				err = fmt.Errorf("detector marks %s down", n.ID)
			} else {
				err = r.push(ctx, n, rec)
			}
			r.metrics.acks.With(n.ID).With(pick(err == nil, "ok", "error")).Inc()
			hinted := false
			if err != nil && r.hints != nil {
				// The hint is journaled on the push goroutine itself, not
				// the collector — so followers that fail after the quorum
				// already returned still get their hints recorded.
				if herr := r.hints.AppendHint(HintRecord{
					Target: n.ID, ID: id, Version: version, Payload: payload,
				}); herr == nil {
					hinted = true
					r.selfheal.hintsRecorded.Inc()
				} else {
					err = fmt.Errorf("%v (hint journal: %v)", err, herr)
				}
			}
			results <- result{node: n, hinted: hinted, err: err}
		}(n)
	}

	hinted := 0
	var errs []string
	for range followers {
		res := <-results
		switch {
		case res.err == nil:
			acks++
		case res.hinted:
			hinted++
		default:
			errs = append(errs, fmt.Sprintf("%s: %v", res.node.ID, res.err))
		}
		if acks+hinted >= r.m.WriteQuorum {
			// Quorum met (durable copies plus durable hints). The remaining
			// pushes keep running on their own goroutines (results is
			// buffered) so healthy followers still converge; the ack
			// returns now.
			outcome(true)
			return nil
		}
	}
	sort.Strings(errs)
	outcome(false)
	return &quorumError{Acks: acks, Hinted: hinted, Quorum: r.m.WriteQuorum, Errs: errs}
}

// push sends one replica record to one follower, retrying once on
// transport errors (a connection blip is common during shard restarts;
// anything longer is the quorum's problem).
func (r *Replicator) push(ctx context.Context, n Node, rec []byte) error {
	var last error
	for attempt := 0; attempt < 2; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(50 * time.Millisecond):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		status, err := r.peer.replicateBytes(ctx, n, rec)
		if err == nil {
			return nil
		}
		last = err
		if status != 0 && status < 500 {
			return last // 4xx is definitive
		}
		// A transport error or 5xx: the follower may be mid-recovery;
		// one more try.
	}
	return last
}

// ReplMetrics declares the shard-side replication counters;
// granula-serve appends them to /metrics as the granula_replication_*
// family, shards sorted so the output is byte-deterministic.
type ReplMetrics struct {
	reg     *metrics.Registry
	acks    metrics.CounterVec2 // follower pushes by shard and outcome: ok, error
	seconds *metrics.Histogram  // quorum wait

	// Quorum outcomes.
	quorumReached *metrics.Counter
	quorumMissed  *metrics.Counter
}

// newReplMetrics returns an empty replication metrics set.
func newReplMetrics() *ReplMetrics {
	r := metrics.NewRegistry()
	m := &ReplMetrics{reg: r}
	m.acks = r.CounterVec2("granula_replication_acks_total", "Follower replication acks by shard and outcome.", "shard", "outcome", "ok", "error")
	quorum := r.CounterVec("granula_replication_quorum_total", "Write-quorum outcomes.", "outcome", "reached", "missed")
	m.quorumReached, m.quorumMissed = quorum.With("reached"), quorum.With("missed")
	m.seconds = r.Histogram("granula_replication_quorum_seconds", "Wall-clock from local persist to quorum outcome.")
	return m
}

// WritePrometheus renders the replication family in Prometheus text
// format.
func (m *ReplMetrics) WritePrometheus(w io.Writer) { m.reg.Write(w) }
