// Package shard turns granula-serve into a horizontally scaled cluster:
// a consistent-hash ring places job IDs onto N shard nodes, a versioned
// shard map describes the membership, a replicator fans acked archives
// out to R replicas with quorum (W) acks, and a thin stateless router
// (cmd/granula-router) proxies the public API onto the shards with
// follower reads, failover, and read-repair.
//
// The package deliberately depends on nothing in internal/service: the
// router speaks raw HTTP/JSON so the byte-determinism of the shard
// responses passes through untouched, and internal/service imports this
// package (Map, Ring, Replicator) for the shard-side write path.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// defaultVirtualNodes is the per-shard virtual-node count when a Map
// does not set one. 160 points per shard keeps the max/mean key load
// within ~1.25x on small clusters while the ring stays tiny (a few KiB).
const defaultVirtualNodes = 160

// Ring is an immutable consistent-hash ring with virtual nodes. Every
// shard contributes vnodes points; a key is owned by the first point at
// or clockwise after its hash. Replicas are the next distinct shards in
// ring order, so adding or removing one shard only moves the keys
// adjacent to its points (the minimal-movement property the ring tests
// pin).
type Ring struct {
	points []ringPoint // sorted by hash
	shards []string    // distinct shard IDs, sorted
}

type ringPoint struct {
	hash  uint64
	shard string
}

// hashKey is the ring's hash function: FNV-1a 64 followed by a 64-bit
// avalanche finalizer (the MurmurHash3 fmix64 constants). Raw FNV-1a
// leaves the high bits of similar short strings poorly dispersed, and
// ring order sorts on exactly those bits — without the finalizer the
// vnode points cluster and shard loads spread as much as 0.4x–2x fair;
// with it they stay within a few percent. The function is stable across
// processes and platforms, which the cluster depends on — the router
// and every shard must agree on key placement from the map alone.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// NewRing builds a ring over the given shard IDs with vnodes virtual
// nodes per shard (< 1 selects defaultVirtualNodes). Duplicate IDs are
// an error: a duplicated shard would silently double its key share.
func NewRing(ids []string, vnodes int) (*Ring, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("shard: ring needs at least one shard")
	}
	if vnodes < 1 {
		vnodes = defaultVirtualNodes
	}
	seen := make(map[string]bool, len(ids))
	r := &Ring{points: make([]ringPoint, 0, len(ids)*vnodes)}
	for _, id := range ids {
		if id == "" {
			return nil, fmt.Errorf("shard: empty shard ID")
		}
		if seen[id] {
			return nil, fmt.Errorf("shard: duplicate shard ID %q", id)
		}
		seen[id] = true
		r.shards = append(r.shards, id)
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:  hashKey(fmt.Sprintf("%s#%d", id, v)),
				shard: id,
			})
		}
	}
	sort.Strings(r.shards)
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Hash ties (astronomically rare with 64-bit FNV) break by shard
		// ID so the ring order is still deterministic everywhere.
		return a.shard < b.shard
	})
	return r, nil
}

// Owners returns the n distinct shards responsible for key, in ring
// order starting at the key's successor point. The first owner is the
// key's primary; the rest are its replicas. n is clamped to the shard
// count.
func (r *Ring) Owners(key string, n int) []string {
	if n < 1 {
		n = 1
	}
	if n > len(r.shards) {
		n = len(r.shards)
	}
	h := hashKey(key)
	// First point with hash >= h, wrapping to 0.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for j := 0; len(out) < n && j < len(r.points); j++ {
		p := r.points[(i+j)%len(r.points)]
		if seen[p.shard] {
			continue
		}
		seen[p.shard] = true
		out = append(out, p.shard)
	}
	return out
}
