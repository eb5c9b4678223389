package shard

import (
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"sort"
	"strings"
)

// Node is one granula-serve shard in the cluster map.
type Node struct {
	// ID is the stable shard name used for ring placement. It must not
	// change across restarts: placement hashes the ID, not the URL.
	ID string `json:"id"`
	// URL is the shard's base HTTP endpoint, e.g. "http://10.0.0.3:8081".
	URL string `json:"url"`
}

// Map is the cluster's static, versioned shard map: the full membership
// plus the replication and quorum parameters every node must agree on.
// The map is propagated as configuration (a -peers flag or a JSON file)
// and echoed by every node's /cluster endpoint with its version, so an
// operator can confirm the whole cluster converged on the same map
// before and after a change.
type Map struct {
	// Version is bumped by the operator on every map change. Nodes and
	// the router only compare it for visibility; placement is derived
	// from the shard IDs alone.
	Version uint64 `json:"version"`
	// Shards is the membership, sorted by ID.
	Shards []Node `json:"shards"`
	// Replication R is how many shards hold each job (primary included).
	// Clamped to the shard count.
	Replication int `json:"replication"`
	// WriteQuorum W is how many replica acks (the writing shard counts
	// as one) a job needs before it may be acked done. 1 <= W <= R.
	WriteQuorum int `json:"writeQuorum"`
	// VirtualNodes per shard on the ring; 0 selects defaultVirtualNodes.
	VirtualNodes int `json:"virtualNodes,omitempty"`

	ring *Ring
}

// ParseNodes parses the -peers / -shards flag grammar: a comma-separated
// list of id=url pairs, e.g. "s1=http://h1:8081,s2=http://h2:8081".
func ParseNodes(spec string) ([]Node, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("shard: empty shard spec")
	}
	var nodes []Node
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, u, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("shard: bad shard %q (want id=url)", part)
		}
		nodes = append(nodes, Node{ID: strings.TrimSpace(id), URL: strings.TrimSpace(u)})
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("shard: empty shard spec")
	}
	return nodes, nil
}

// NewMap builds and validates a map over nodes. replication < 1 selects
// len(nodes); writeQuorum < 1 selects a majority of the replica set
// (R/2+1), the classic quorum that tolerates (R-W) replica failures
// without losing an acked write.
func NewMap(version uint64, nodes []Node, replication, writeQuorum, vnodes int) (*Map, error) {
	m := &Map{
		Version:      version,
		Shards:       append([]Node(nil), nodes...),
		Replication:  replication,
		WriteQuorum:  writeQuorum,
		VirtualNodes: vnodes,
	}
	if m.Replication < 1 || m.Replication > len(nodes) {
		m.Replication = len(nodes)
	}
	if m.WriteQuorum < 1 {
		m.WriteQuorum = m.Replication/2 + 1
	}
	if err := m.init(); err != nil {
		return nil, err
	}
	return m, nil
}

// LoadMap reads a shard map from a JSON file (the durable form of the
// -peers flag, for maps too big or too precious for a command line).
func LoadMap(path string) (*Map, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	var m Map
	if err := json.Unmarshal(buf, &m); err != nil {
		return nil, fmt.Errorf("shard: parse map %s: %w", path, err)
	}
	if m.Replication < 1 || m.Replication > len(m.Shards) {
		m.Replication = len(m.Shards)
	}
	if m.WriteQuorum < 1 {
		m.WriteQuorum = m.Replication/2 + 1
	}
	if err := m.init(); err != nil {
		return nil, err
	}
	return &m, nil
}

// init validates the map and builds its ring.
func (m *Map) init() error {
	if len(m.Shards) == 0 {
		return fmt.Errorf("shard: map has no shards")
	}
	sort.Slice(m.Shards, func(i, j int) bool { return m.Shards[i].ID < m.Shards[j].ID })
	ids := make([]string, 0, len(m.Shards))
	for _, n := range m.Shards {
		if n.URL == "" {
			return fmt.Errorf("shard: shard %q has no URL", n.ID)
		}
		u, err := url.Parse(n.URL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return fmt.Errorf("shard: shard %q has unusable URL %q", n.ID, n.URL)
		}
		ids = append(ids, n.ID)
	}
	if m.WriteQuorum > m.Replication {
		return fmt.Errorf("shard: write quorum %d exceeds replication %d", m.WriteQuorum, m.Replication)
	}
	ring, err := NewRing(ids, m.VirtualNodes)
	if err != nil {
		return err
	}
	m.ring = ring
	return nil
}

// owners returns the replica set (primary first) for a job ID.
func (m *Map) owners(jobID string) []Node {
	ids := m.ring.Owners(jobID, m.Replication)
	out := make([]Node, 0, len(ids))
	for _, id := range ids {
		out = append(out, m.node(id))
	}
	return out
}

// node returns the Node for a shard ID (which init guaranteed exists).
func (m *Map) node(id string) Node {
	i := sort.Search(len(m.Shards), func(i int) bool { return m.Shards[i].ID >= id })
	return m.Shards[i]
}

// lookup returns the shard with the given ID.
func (m *Map) lookup(id string) (Node, bool) {
	i := sort.Search(len(m.Shards), func(i int) bool { return m.Shards[i].ID >= id })
	if i < len(m.Shards) && m.Shards[i].ID == id {
		return m.Shards[i], true
	}
	return Node{}, false
}
