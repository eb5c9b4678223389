package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
	"unicode/utf8"
)

// DigestPath is the cluster-internal digest exchange: a shard answers
// GET with its full (jobID, version) digest, the anti-entropy sweep's
// unit of comparison. Versions make the exchange cheap — divergence is
// a version mismatch, and only divergent records ship bytes.
const DigestPath = "/internal/digest"

// DigestEntry is one job's row in a shard digest.
type DigestEntry struct {
	ID      string `json:"id"`
	Version uint64 `json:"version"`
}

// validateDigest checks the invariants every digest must hold: IDs
// non-empty valid UTF-8, versions >= 1, strictly sorted by ID (sorted
// order is what makes the exchange deterministic and duplicate-free).
// Fuzzed via FuzzDigest.
func validateDigest(entries []DigestEntry) error {
	for i, e := range entries {
		switch {
		case e.ID == "":
			return fmt.Errorf("shard: digest entry %d has no id", i)
		case !utf8.ValidString(e.ID):
			return fmt.Errorf("shard: digest entry %d id is not valid UTF-8", i)
		case e.Version == 0:
			return fmt.Errorf("shard: digest entry %q has version 0", e.ID)
		case i > 0 && entries[i-1].ID >= e.ID:
			return fmt.Errorf("shard: digest not strictly sorted at %q", e.ID)
		}
	}
	return nil
}

// EncodeDigest validates and marshals a digest for the wire.
func EncodeDigest(entries []DigestEntry) ([]byte, error) {
	if err := validateDigest(entries); err != nil {
		return nil, err
	}
	if entries == nil {
		entries = []DigestEntry{}
	}
	buf, err := json.Marshal(entries)
	if err != nil {
		return nil, fmt.Errorf("shard: encode digest: %w", err)
	}
	return buf, nil
}

// decodeDigest unmarshals and validates a wire digest.
func decodeDigest(buf []byte) ([]DigestEntry, error) {
	var entries []DigestEntry
	if err := json.Unmarshal(buf, &entries); err != nil {
		return nil, fmt.Errorf("shard: decode digest: %w", err)
	}
	if err := validateDigest(entries); err != nil {
		return nil, err
	}
	return entries, nil
}

// LocalReplicaStore is the shard-local state the anti-entropy sweep
// reads and writes; internal/service.Store implements it. The shard
// package defines the interface (not the service type) to keep the
// dependency direction honest — shard must not import service.
type LocalReplicaStore interface {
	// Digest returns the local (jobID, version) set, sorted by ID.
	Digest() []DigestEntry
	// ExportRecord returns the exact persisted bytes for one job.
	ExportRecord(id string) (ReplicaRecord, bool, error)
	// ApplyRecord applies a record idempotently by (ID, version).
	ApplyRecord(rec ReplicaRecord) error
}

// AntiEntropyOptions tunes NewAntiEntropy; zero values select defaults.
type AntiEntropyOptions struct {
	// Client issues the digest/export/replicate exchange; nil selects a
	// 30 s timeout client.
	Client *http.Client
	// Interval is the background sweep period; 0 selects 5 s.
	Interval time.Duration
	// Detector, when set, skips peers marked Down (they cannot answer;
	// the sweep catches them up after they return).
	Detector *Detector
	// Metrics receives sweep counters; nil creates a private set.
	Metrics *SelfHealMetrics
}

// AntiEntropy is the read-independent convergence loop: each shard
// periodically exchanges digests with the peers it shares replica sets
// with, pushes its exported bytes for records where it is newer, and
// pulls where the peer is newer. Together with hinted handoff this
// generalizes the router's read-triggered repair into a guarantee —
// replicas converge to byte-identical archives even if no client ever
// reads them.
type AntiEntropy struct {
	*ticker
	m       *Map
	self    string
	store   LocalReplicaStore
	peer    peerClient
	det     *Detector
	metrics *SelfHealMetrics
}

// NewAntiEntropy builds the sweep for one shard (self) over the map.
func NewAntiEntropy(self string, m *Map, store LocalReplicaStore, opts AntiEntropyOptions) (*AntiEntropy, error) {
	if _, ok := m.lookup(self); !ok {
		return nil, fmt.Errorf("shard: anti-entropy self %q is not in the map", self)
	}
	interval := opts.Interval
	if interval <= 0 {
		interval = 5 * time.Second
	}
	ae := &AntiEntropy{
		m: m, self: self, store: store, peer: newPeerClient(opts.Client, 30*time.Second),
		det: opts.Detector, metrics: orPrivate(opts.Metrics),
	}
	ae.ticker = newTicker(interval, func(ctx context.Context) { ae.sweepOnce(ctx) })
	return ae, nil
}

// sweepOnce runs one full digest exchange against every reachable peer
// and returns how many records were pushed to and pulled from peers.
// Only records both sides own (per the ring) are exchanged — a digest
// names everything a shard holds, but convergence is defined over
// replica sets, not over the union of all shards.
func (ae *AntiEntropy) sweepOnce(ctx context.Context) (pushed, pulled int) {
	local := map[string]uint64{}
	for _, e := range ae.store.Digest() {
		local[e.ID] = e.Version
	}
	for _, peer := range ae.m.Shards {
		if peer.ID == ae.self {
			continue
		}
		if ae.det != nil && ae.det.isDown(peer.ID) {
			continue
		}
		if ctx.Err() != nil {
			return pushed, pulled
		}
		p, q := ae.sweepPeer(ctx, peer, local)
		pushed += p
		pulled += q
	}
	ae.metrics.sweeps.Inc()
	ae.metrics.sweepsPushed.Add(uint64(pushed))
	ae.metrics.sweepsPulled.Add(uint64(pulled))
	return pushed, pulled
}

// sweepPeer reconciles the local store against one peer's digest.
func (ae *AntiEntropy) sweepPeer(ctx context.Context, peer Node, local map[string]uint64) (pushed, pulled int) {
	remote, err := ae.peer.digest(ctx, peer)
	if err != nil {
		ae.metrics.sweepErrors.Inc()
		return 0, 0
	}
	remoteV := map[string]uint64{}
	for _, e := range remote {
		remoteV[e.ID] = e.Version
	}
	// Union of both key sets, deduplicated via the maps themselves.
	seen := map[string]bool{}
	consider := func(id string) {
		if seen[id] {
			return
		}
		seen[id] = true
		if !ae.coOwned(id, peer.ID) {
			return
		}
		lv, rv := local[id], remoteV[id]
		switch {
		case lv > rv:
			if ae.pushRecord(ctx, peer, id) {
				pushed++
			}
		case rv > lv:
			if ae.pullRecord(ctx, peer, id) {
				pulled++
			}
		}
	}
	for id := range local {
		consider(id)
	}
	for id := range remoteV {
		consider(id)
	}
	return pushed, pulled
}

// coOwned reports whether both self and the peer are ring owners of id
// — the only pairs with a convergence obligation.
func (ae *AntiEntropy) coOwned(id, peerID string) bool {
	selfOwns, peerOwns := false, false
	for _, n := range ae.m.owners(id) {
		if n.ID == ae.self {
			selfOwns = true
		}
		if n.ID == peerID {
			peerOwns = true
		}
	}
	return selfOwns && peerOwns
}

// pushRecord ships the local bytes for id to the peer (races with hints
// and read-repair are harmless).
func (ae *AntiEntropy) pushRecord(ctx context.Context, n Node, id string) bool {
	rec, ok, err := ae.store.ExportRecord(id)
	if err != nil || !ok {
		return false
	}
	return ae.peer.replicate(ctx, n, rec) == nil
}

// pullRecord fetches the peer's bytes for id and applies them locally.
func (ae *AntiEntropy) pullRecord(ctx context.Context, n Node, id string) bool {
	rec, ok := ae.peer.export(ctx, n, id)
	return ok && ae.store.ApplyRecord(rec) == nil
}
