package shard

import (
	"fmt"
	"net/http"
	"net/url"
	"sync"
)

// Partition is the cluster chaos harness's network-partition switch: a
// concurrent set of blocked hosts consulted by Transport-wrapped HTTP
// clients. Blocking a shard's URL makes every request to it fail at the
// transport layer — indistinguishable, to the router and replicators,
// from a severed link — without touching the shard process, so the
// partition can heal instantly. It extends the internal/faults
// injection sites to whole-shard topology faults.
type Partition struct {
	mu      sync.RWMutex
	blocked map[string]bool // by URL host
	dropped uint64
}

// NewPartition returns a partition with no blocked hosts.
func NewPartition() *Partition {
	return &Partition{blocked: map[string]bool{}}
}

// hostOf extracts the host:port a URL dials.
func hostOf(rawurl string) string {
	u, err := url.Parse(rawurl)
	if err != nil {
		return rawurl
	}
	return u.Host
}

// Block severs the link to every given shard base URL.
func (p *Partition) Block(urls ...string) {
	p.mu.Lock()
	for _, u := range urls {
		p.blocked[hostOf(u)] = true
	}
	p.mu.Unlock()
}

// Unblock heals the link to the given shard base URLs.
func (p *Partition) Unblock(urls ...string) {
	p.mu.Lock()
	for _, u := range urls {
		delete(p.blocked, hostOf(u))
	}
	p.mu.Unlock()
}

// Heal removes every block.
func (p *Partition) Heal() {
	p.mu.Lock()
	p.blocked = map[string]bool{}
	p.mu.Unlock()
}

// Dropped returns how many requests the partition has refused.
func (p *Partition) Dropped() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.dropped
}

// Transport wraps base (nil selects http.DefaultTransport) so requests
// to blocked hosts fail with a connection-style error before dialing.
func (p *Partition) Transport(base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &partitionTransport{base: base, p: p}
}

// Client returns an http.Client whose transport honors the partition.
func (p *Partition) Client() *http.Client {
	return &http.Client{Transport: p.Transport(nil)}
}

type partitionTransport struct {
	base http.RoundTripper
	p    *Partition
}

func (t *partitionTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.p.mu.Lock()
	blocked := t.p.blocked[req.URL.Host]
	if blocked {
		t.p.dropped++
	}
	t.p.mu.Unlock()
	if blocked {
		return nil, fmt.Errorf("shard: partition: host %s unreachable", req.URL.Host)
	}
	return t.base.RoundTrip(req)
}
