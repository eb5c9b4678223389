package service

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/shard"
)

// hintKeyPrefix namespaces the archivedb records that journal hinted
// handoff: replica writes that missed their target and count toward
// the sloppy write quorum as durable hints. Like streamKeyPrefix, '~'
// keeps the namespace disjoint from every job ID the API accepts
// (checkJobID refuses the rest), so hints ride the same WAL (and the
// same group commit, fsync, and recovery path) as the archives they
// name.
const hintKeyPrefix = "~hint/"

// hintKey builds the archivedb key for one journaled hint. Target
// shard IDs cannot contain '/' (shard.NewMap refuses them), so the
// first slash after the prefix splits target from job ID even when the
// job ID itself has slashes.
func hintKey(target, id string) string {
	return hintKeyPrefix + target + "/" + id
}

// parseHintKey inverts hintKey.
func parseHintKey(key string) (target, id string, ok bool) {
	rest, ok := strings.CutPrefix(key, hintKeyPrefix)
	target, id, cut := strings.Cut(rest, "/")
	return target, id, ok && cut && target != "" && id != ""
}

// AppendHint journals one missed replica write durably, implementing
// shard.HintJournal. The WAL value is the hint's version alone: the
// record it names is already in this store. The hint takes the
// store's one breaker-guarded WAL write, as archives do — an acked
// hint survives a crash, which is what lets it count toward the write
// quorum. A hint for the same (target, id) is superseded when the new
// version is equal or newer; an older version is silently dropped (the
// journal already holds a strictly better hint).
func (s *Store) AppendHint(rec shard.HintRecord) error {
	key := hintKey(rec.Target, rec.ID)
	if target, id, ok := parseHintKey(key); !ok || target != rec.Target || id != rec.ID {
		return fmt.Errorf("service: hint for %q to %q has no journal key", rec.ID, rec.Target)
	}
	s.mu.RLock()
	cur, have := s.hints[rec.Target][rec.ID]
	s.mu.RUnlock()
	if have && cur.Version > rec.Version {
		return nil
	}
	if err := s.write(key, strconv.AppendUint(nil, rec.Version, 10)); err != nil {
		return err
	}
	s.mu.Lock()
	if s.hints[rec.Target] == nil {
		s.hints[rec.Target] = map[string]shard.HintRecord{}
	}
	if old, ok := s.hints[rec.Target][rec.ID]; !ok || old.Version <= rec.Version {
		s.hints[rec.Target][rec.ID] = rec
	}
	s.mu.Unlock()
	return nil
}

// HintTargets lists the peers with pending hints, sorted.
func (s *Store) HintTargets() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.hints))
	for t, m := range s.hints {
		if len(m) > 0 {
			out = append(out, t)
		}
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// PendingHints returns the journaled hints for one target, sorted by
// job ID so replay order is deterministic.
func (s *Store) PendingHints(target string) ([]shard.HintRecord, error) {
	s.mu.RLock()
	out := make([]shard.HintRecord, 0, len(s.hints[target]))
	for _, rec := range s.hints[target] {
		out = append(out, rec)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// DeleteHint removes a delivered hint. A journaled version newer than
// the delivered one is kept — it still needs replaying.
func (s *Store) DeleteHint(target, id string, version uint64) error {
	s.mu.Lock()
	cur, have := s.hints[target][id]
	if have && cur.Version > version {
		s.mu.Unlock()
		return nil
	}
	if have {
		delete(s.hints[target], id)
		if len(s.hints[target]) == 0 {
			delete(s.hints, target)
		}
	}
	s.mu.Unlock()
	if !have {
		return nil
	}
	return s.db.Delete(hintKey(target, id))
}

// HintCount returns the total pending hints across targets.
func (s *Store) HintCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, m := range s.hints {
		n += len(m)
	}
	return n
}

// Digest returns the store's (jobID, version) set sorted by ID,
// implementing shard.LocalReplicaStore for the anti-entropy sweep.
func (s *Store) Digest() []shard.DigestEntry {
	s.mu.RLock()
	out := make([]shard.DigestEntry, 0, len(s.jobs))
	for id, sj := range s.jobs {
		out = append(out, shard.DigestEntry{ID: id, Version: sj.Version})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ExportRecord returns the exact persisted bytes for one job as a
// replica record, implementing shard.LocalReplicaStore.
func (s *Store) ExportRecord(id string) (shard.ReplicaRecord, bool, error) {
	payload, version, ok, err := s.export(id)
	if err != nil || !ok {
		return shard.ReplicaRecord{}, ok, err
	}
	return shard.ReplicaRecord{ID: id, Version: version, Payload: payload}, true, nil
}

// ApplyRecord applies a record idempotently by (ID, version),
// implementing shard.LocalReplicaStore.
func (s *Store) ApplyRecord(rec shard.ReplicaRecord) error {
	if rec.ID == "" || len(rec.Payload) == 0 {
		return fmt.Errorf("service: apply record: missing id or payload")
	}
	return s.applyReplica(rec.ID, rec.Version, rec.Payload)
}
