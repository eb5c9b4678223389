package shard

import (
	"fmt"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("job-%06d", i)
	}
	return keys
}

// primary is the shard that owns key.
func primary(r *Ring, key string) string { return r.Owners(key, 1)[0] }

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Fatal("NewRing accepted an empty shard list")
	}
	if _, err := NewRing([]string{"a", ""}, 0); err == nil {
		t.Fatal("NewRing accepted an empty shard ID")
	}
	if _, err := NewRing([]string{"a", "a"}, 0); err == nil {
		t.Fatal("NewRing accepted a duplicate shard ID")
	}
}

func TestRingDeterministicPlacement(t *testing.T) {
	r1, err := NewRing([]string{"s1", "s2", "s3"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing([]string{"s3", "s1", "s2"}, 0) // order must not matter
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ringKeys(500) {
		if primary(r1, k) != primary(r2, k) {
			t.Fatalf("placement of %q depends on construction order: %q vs %q",
				k, primary(r1, k), primary(r2, k))
		}
		owners := r1.Owners(k, 2)
		if len(owners) != 2 || owners[0] == owners[1] {
			t.Fatalf("Owners(%q, 2) = %v, want 2 distinct shards", k, owners)
		}
		if owners[0] != primary(r1, k) {
			t.Fatalf("Owners(%q)[0] = %q, but Primary = %q", k, owners[0], primary(r1, k))
		}
	}
}

// TestRingDistribution checks the load balance the virtual nodes buy:
// across 3, 5, and 8 shards, every shard's share of a large key space
// must stay within ±35% of the fair share. With 160 vnodes the observed
// imbalance is far smaller; the bound is where the test fails only if
// the hashing or vnode placement actually breaks.
func TestRingDistribution(t *testing.T) {
	const keys = 20000
	for _, shards := range []int{3, 5, 8} {
		ids := make([]string, shards)
		for i := range ids {
			ids[i] = fmt.Sprintf("shard-%d", i)
		}
		r, err := NewRing(ids, 0)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[string]int{}
		for _, k := range ringKeys(keys) {
			counts[primary(r, k)]++
		}
		fair := float64(keys) / float64(shards)
		for _, id := range ids {
			got := float64(counts[id])
			if got < fair*0.65 || got > fair*1.35 {
				t.Errorf("%d shards: %s owns %.0f keys, outside [%.0f, %.0f] around fair %.0f",
					shards, id, got, fair*0.65, fair*1.35, fair)
			}
		}
		if len(counts) != shards {
			t.Errorf("%d shards: only %d received any keys", shards, len(counts))
		}
	}
}

// TestRingMinimalMovement checks consistent hashing's defining
// property: adding or removing one shard moves only the keys that had
// to move — about 1/n of the space — instead of reshuffling everything
// the way mod-N hashing would.
func TestRingMinimalMovement(t *testing.T) {
	keys := ringKeys(20000)
	ids := []string{"s1", "s2", "s3", "s4", "s5"}
	base, err := NewRing(ids, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Add a sixth shard: keys may only move TO the new shard; at most
	// ~1/6 of them (with slack for vnode variance) may move at all.
	grown, err := NewRing(append(append([]string{}, ids...), "s6"), 0)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, k := range keys {
		before, after := primary(base, k), primary(grown, k)
		if before != after {
			moved++
			if after != "s6" {
				t.Fatalf("adding s6 moved %q from %q to %q (not to the new shard)", k, before, after)
			}
		}
	}
	if max := len(keys) / 6 * 3 / 2; moved > max {
		t.Errorf("adding 1 of 6 shards moved %d/%d keys, want <= %d", moved, len(keys), max)
	}
	if moved == 0 {
		t.Error("adding a shard moved no keys at all")
	}

	// Remove a shard: only its keys may move.
	shrunk, err := NewRing([]string{"s1", "s2", "s4", "s5"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	moved = 0
	for _, k := range keys {
		before, after := primary(base, k), primary(shrunk, k)
		if before != after {
			moved++
			if before != "s3" {
				t.Fatalf("removing s3 moved %q owned by %q", k, before)
			}
		}
	}
	if max := len(keys) / 5 * 3 / 2; moved > max {
		t.Errorf("removing 1 of 5 shards moved %d/%d keys, want <= %d", moved, len(keys), max)
	}
}

func TestRingOwnersClamp(t *testing.T) {
	r, err := NewRing([]string{"a", "b"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Owners("k", 5); len(got) != 2 {
		t.Fatalf("Owners with n > shards = %v, want both shards", got)
	}
	if got := r.Owners("k", 0); len(got) != 1 {
		t.Fatalf("Owners with n = 0 = %v, want the primary alone", got)
	}
	if got := r.shards; len(got) != 2 {
		t.Fatalf("shards = %v", got)
	}
}

// TestMapRefusesSlashInShardID: a hint's journal key is
// ~hint/<target>/<job ID>, split at the first slash, so a shard ID with
// a '/' would journal hints that no restart could restore. NewMap, the
// one way into a map, refuses one.
func TestMapRefusesSlashInShardID(t *testing.T) {
	nodes, err := ParseNodes("rack1/s1=http://h1:1,s2=http://h2:1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMap(1, nodes, 0, 0, 0); err == nil {
		t.Fatal("NewMap accepted the shard ID rack1/s1")
	}
}
