package shard

import (
	"context"
	"net/http"
	"time"
)

// HintRecord is the durable unit of hinted handoff: a replica write
// that could not reach its target within the quorum window, journaled
// by the acking node (under archivedb's `~hint/` namespace, see
// internal/service) and replayed by the drainer when the target
// returns. It names the record rather than carrying it: the acking
// node persisted the job before it pushed, so a drain exports the
// node's own record (at Version or newer) and pushes that, the same
// push anti-entropy makes. Version 0 means "whatever the node holds".
type HintRecord struct {
	Target  string
	ID      string
	Version uint64
}

// HintJournal is the durable hint store a shard node provides (the
// service layer implements it over the same archivedb WAL archives
// use, so an acked hint survives a crash). All methods must be safe
// for concurrent use.
type HintJournal interface {
	// AppendHint journals one missed replica write durably. A hint for
	// the same (target, id) at an equal-or-newer version may supersede
	// the old one — only the newest version ever needs replaying.
	AppendHint(rec HintRecord) error
	// HintTargets lists the peers with pending hints, sorted.
	HintTargets() []string
	// PendingHints returns the journaled hints for one target, sorted
	// by job ID.
	PendingHints(target string) ([]HintRecord, error)
	// DeleteHint removes a delivered hint. A journaled version newer
	// than the delivered one is kept (it still needs replaying).
	DeleteHint(target, id string, version uint64) error
	// HintCount returns the total pending hints across targets.
	HintCount() int
	// ExportRecord returns the node's own persisted record for a job:
	// what a drain pushes.
	ExportRecord(id string) (ReplicaRecord, bool, error)
}

// DrainerOptions tunes NewDrainer; zero values select defaults.
type DrainerOptions struct {
	// Client issues the replay POSTs; nil selects a 30 s timeout client.
	Client *http.Client
	// Interval is the background drain period; 0 selects 1 s.
	Interval time.Duration
	// Detector, when set, gates replay: targets marked Down are skipped
	// without an attempt (the journal is durable, there is no hurry).
	// Without a detector every target is attempted each tick.
	Detector *Detector
	// Metrics receives drain counters; nil creates a private set.
	Metrics *SelfHealMetrics
}

// Drainer is the background half of hinted handoff: it watches the
// journal and replays pending hints to their targets once they are
// reachable again, deleting each hint on a successful ack. Combined
// with the journal's durability this is what converges "done implies W
// durable copies" back to full replication after a dead replica
// returns — without operator action and without waiting for a read.
type Drainer struct {
	*ticker
	m       *Map
	journal HintJournal
	peer    peerClient
	det     *Detector
	metrics *SelfHealMetrics
}

// NewDrainer builds a drainer over the map and journal.
func NewDrainer(m *Map, journal HintJournal, opts DrainerOptions) *Drainer {
	interval := opts.Interval
	if interval <= 0 {
		interval = time.Second
	}
	d := &Drainer{
		m: m, journal: journal, peer: newPeerClient(opts.Client, 30*time.Second),
		det: opts.Detector, metrics: orPrivate(opts.Metrics),
	}
	d.ticker = newTicker(interval, func(ctx context.Context) { d.drainOnce(ctx) })
	return d
}

// drainOnce attempts one replay pass over every pending target and
// returns how many hints were delivered (and deleted). A hint is
// replayed by pushing the node's current record for its job. Targets
// the detector marks Down are skipped; a replay failure abandons that
// target for this pass (the peer is still unreachable) but other
// targets keep draining.
func (d *Drainer) drainOnce(ctx context.Context) int {
	drained := 0
	for _, target := range d.journal.HintTargets() {
		if d.det != nil && d.det.isDown(target) {
			continue
		}
		node, ok := d.m.lookup(target)
		if !ok {
			continue // target left the map; hints are unreachable garbage
		}
		hints, err := d.journal.PendingHints(target)
		if err != nil {
			continue
		}
		for _, h := range hints {
			if ctx.Err() != nil {
				return drained
			}
			version, held, err := d.peer.pushLocal(ctx, d.journal.ExportRecord, node, h.ID)
			if err != nil {
				d.metrics.hintsDrainFailed.Inc()
				break // peer still unreachable; retry next tick
			}
			if held {
				d.metrics.hintsDrained.Inc()
				drained++
			}
			// A push delivers every hint up to the version it pushed. A
			// node without the job has nothing to hand off: anti-entropy
			// converges the target from whichever node holds it.
			d.journal.DeleteHint(target, h.ID, max(version, h.Version)) //nolint:errcheck
		}
	}
	return drained
}
