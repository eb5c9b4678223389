package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
	"unicode/utf8"
)

// HintRecord is the durable unit of hinted handoff: a replica write
// that could not reach its target within the quorum window, journaled
// by the acking node (under archivedb's `~hint/` namespace, see
// internal/service) and replayed by the drainer when the target
// returns. Payload is the exact persisted bytes of the job — replaying
// a hint is the same POST /internal/replicate the original fan-out
// would have issued, so a drained replica is byte-identical to one
// that never missed the write.
type HintRecord struct {
	Target  string          `json:"target"`
	ID      string          `json:"id"`
	Version uint64          `json:"version"`
	Payload json.RawMessage `json:"payload"`
}

// validate checks the structural invariants every hint must hold
// before it is journaled or replayed. Fuzzed via FuzzHintRecord.
func (h HintRecord) validate() error {
	switch {
	case h.Target == "":
		return fmt.Errorf("shard: hint has no target")
	case !utf8.ValidString(h.Target):
		return fmt.Errorf("shard: hint target is not valid UTF-8")
	case h.ID == "":
		return fmt.Errorf("shard: hint has no job id")
	case !utf8.ValidString(h.ID):
		return fmt.Errorf("shard: hint job id is not valid UTF-8")
	case h.Version == 0:
		return fmt.Errorf("shard: hint for %q has version 0", h.ID)
	case len(h.Payload) == 0:
		return fmt.Errorf("shard: hint for %q has no payload", h.ID)
	case !json.Valid(h.Payload):
		return fmt.Errorf("shard: hint for %q has a non-JSON payload", h.ID)
	}
	return nil
}

// EncodeHintRecord validates and marshals one hint for the journal.
func EncodeHintRecord(h HintRecord) ([]byte, error) {
	if err := h.validate(); err != nil {
		return nil, err
	}
	buf, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("shard: encode hint for %q: %w", h.ID, err)
	}
	return buf, nil
}

// DecodeHintRecord unmarshals and validates one journaled hint.
func DecodeHintRecord(buf []byte) (HintRecord, error) {
	var h HintRecord
	if err := json.Unmarshal(buf, &h); err != nil {
		return HintRecord{}, fmt.Errorf("shard: decode hint: %w", err)
	}
	if err := h.validate(); err != nil {
		return HintRecord{}, err
	}
	return h, nil
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
// returns how many hints were delivered (and deleted). Targets the
// detector marks Down are skipped; a replay failure abandons that
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
			// Replaying a hint is the POST the original fan-out would
			// have issued.
			err := d.peer.replicate(ctx, node, ReplicaRecord{ID: h.ID, Version: h.Version, Payload: h.Payload})
			pick(err == nil, d.metrics.hintsDrained, d.metrics.hintsDrainFailed).Inc()
			if err != nil {
				break // peer still unreachable; retry next tick
			}
			d.journal.DeleteHint(target, h.ID, h.Version) //nolint:errcheck
			drained++
		}
	}
	return drained
}
