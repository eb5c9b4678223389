package shard

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// maxPeerErrorBytes caps how much of a peer's error body is kept;
// MaxRecordBytes caps a replicated or exported record and a digest. It
// is archivedb's default record cap, so any record a shard can persist
// can cross to its peers.
const (
	maxPeerErrorBytes = 4096
	MaxRecordBytes    = 64 << 20
)

// peerClient is the client side of the cluster-internal wire protocol —
// replicate, export, digest, health — shared by the replicator, the
// hint drainer, the anti-entropy sweep, the failure detector and the
// router's read-repair, so requests are built and answers validated in
// one place.
type peerClient struct {
	client *http.Client
}

// newPeerClient wraps c; nil selects a client with the given overall timeout.
func newPeerClient(c *http.Client, timeout time.Duration) peerClient {
	if c == nil {
		c = &http.Client{Timeout: timeout}
	}
	return peerClient{client: c}
}

// recordURL is n's URL for job id under one of the per-record prefixes.
// The ID is escaped into one path segment. url.PathEscape leaves dots
// alone, and the server's mux would clean a "." or ".." segment away, so
// those two IDs spell their dots as %2E.
func recordURL(n Node, prefix, id string) string {
	seg := url.PathEscape(id)
	if id == "." || id == ".." {
		seg = strings.Repeat("%2E", len(id))
	}
	return n.URL + prefix + seg
}

// do issues one request and returns the status, the answer's headers
// and at most limit bytes of body (error bodies are capped at
// maxPeerErrorBytes regardless). A 200 answer that declares more than
// limit bytes is an error.
func (p peerClient) do(req *http.Request, limit int64) (int, http.Header, []byte, error) {
	resp, err := p.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	size := resp.ContentLength
	if resp.StatusCode != http.StatusOK {
		limit, size = maxPeerErrorBytes, -1
	} else if size > limit {
		return 0, nil, nil, fmt.Errorf("%s answered %d bytes, above the %d limit", req.URL.Path, size, limit)
	}
	buf, err := readSized(io.LimitReader(resp.Body, limit), size)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, buf, nil
}

// readSized reads r to its end. With the length known (n >= 0) it reads
// into one buffer of exactly n bytes instead of growing one by
// doubling; a body shorter than n is an error.
func readSized(r io.Reader, n int64) ([]byte, error) {
	if n < 0 {
		return io.ReadAll(r)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// get issues one GET of url.
func (p peerClient) get(ctx context.Context, url string, limit int64) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, nil, err
	}
	return p.do(req, limit)
}

// replicate POSTs rec to n: the payload is the body, byte for byte. The
// endpoint is idempotent by (ID, version), so replays — a drained hint,
// a racing repair — are harmless acks. A non-200 answer is an error
// carrying the status; a transport failure reports status 0.
func (p peerClient) replicate(ctx context.Context, n Node, rec ReplicaRecord) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		recordURL(n, ReplicatePathPrefix, rec.ID), bytes.NewReader(rec.Payload))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(VersionHeader, strconv.FormatUint(rec.Version, 10))
	status, _, body, err := p.do(req, maxPeerErrorBytes)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return status, fmt.Errorf("%d %s: %s", status, http.StatusText(status), bytes.TrimSpace(body))
	}
	return status, nil
}

// export fetches n's record for id; ok is false when n does not hold
// it, cannot be reached, or answers something that is not a record.
func (p peerClient) export(ctx context.Context, n Node, id string) (rec ReplicaRecord, ok bool) {
	status, hdr, body, err := p.get(ctx, recordURL(n, ExportPathPrefix, id), MaxRecordBytes)
	if err != nil || status != http.StatusOK || len(body) == 0 {
		return ReplicaRecord{}, false
	}
	version, err := strconv.ParseUint(hdr.Get(VersionHeader), 10, 64)
	if err != nil || version == 0 {
		return ReplicaRecord{}, false
	}
	return ReplicaRecord{ID: id, Version: version, Payload: body}, true
}

// digest GETs and validates n's (jobID, version) digest.
func (p peerClient) digest(ctx context.Context, n Node) ([]DigestEntry, error) {
	status, _, body, err := p.get(ctx, n.URL+DigestPath, MaxRecordBytes)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("shard: digest from %s: %d %s", n.ID, status, http.StatusText(status))
	}
	return decodeDigest(body)
}

// alive issues one health GET; any 2xx answer counts — even a degraded
// (breaker-open) shard is reachable and must not be promoted around, it
// still serves reads and replica applies.
func (p peerClient) alive(ctx context.Context, n Node) bool {
	status, _, _, err := p.get(ctx, n.URL+HealthPath, maxPeerErrorBytes)
	return err == nil && status >= 200 && status < 300
}

// ticker is the lifecycle of a background loop: Start runs fn every
// interval on one goroutine, each pass under its own deadline; Close
// stops the loop and waits for it. Both are idempotent and Close is safe
// without Start.
type ticker struct {
	interval time.Duration
	fn       func(context.Context)

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

func newTicker(interval time.Duration, fn func(context.Context)) *ticker {
	return &ticker{interval: interval, fn: fn, stop: make(chan struct{}), done: make(chan struct{})}
}

// Start launches the background loop. Idempotent.
func (t *ticker) Start() {
	t.startOnce.Do(func() { go t.loop() })
}

// Close stops the loop and waits for it; safe without Start and safe to
// call more than once.
func (t *ticker) Close() {
	t.stopOnce.Do(func() { close(t.stop) })
	t.startOnce.Do(func() { close(t.done) }) // never started: unblock the wait
	<-t.done
}

func (t *ticker) loop() {
	defer close(t.done)
	tick := time.NewTicker(t.interval)
	defer tick.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-tick.C:
			ctx, cancel := context.WithTimeout(context.Background(), t.interval*4+30*time.Second)
			t.fn(ctx)
			cancel()
		}
	}
}
