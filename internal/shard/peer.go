package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// maxPeerErrorBytes caps how much of a peer's error body is kept;
// maxPeerRecordBytes caps an exported record or a digest.
const (
	maxPeerErrorBytes  = 4096
	maxPeerRecordBytes = 64 << 20
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

// do issues one request and returns the status with at most limit bytes
// of body (error bodies are capped at maxPeerErrorBytes regardless).
func (p peerClient) do(ctx context.Context, method, url string, body []byte, limit int64) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		limit = maxPeerErrorBytes
	}
	buf, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, buf, nil
}

// replicateBytes POSTs one encoded ReplicaRecord to n. The endpoint is
// idempotent by (ID, version), so replays — a drained hint, a racing
// repair — are harmless acks. A non-200 answer is an error carrying
// the status; a transport failure reports status 0.
func (p peerClient) replicateBytes(ctx context.Context, n Node, rec []byte) (int, error) {
	status, body, err := p.do(ctx, http.MethodPost, n.URL+ReplicatePath, rec, maxPeerErrorBytes)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return status, fmt.Errorf("%d %s: %s", status, http.StatusText(status), bytes.TrimSpace(body))
	}
	return status, nil
}

// replicate encodes rec and POSTs it to n.
func (p peerClient) replicate(ctx context.Context, n Node, rec ReplicaRecord) error {
	buf, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	_, err = p.replicateBytes(ctx, n, buf)
	return err
}

// export fetches n's record for id; ok is false when n does not hold
// it, cannot be reached, or answers something that is not that record.
func (p peerClient) export(ctx context.Context, n Node, id string) (rec ReplicaRecord, ok bool) {
	status, body, err := p.do(ctx, http.MethodGet, n.URL+ExportPathPrefix+id, nil, maxPeerRecordBytes)
	if err != nil || status != http.StatusOK || json.Unmarshal(body, &rec) != nil {
		return ReplicaRecord{}, false
	}
	if rec.ID != id || rec.Version == 0 || len(rec.Payload) == 0 {
		return ReplicaRecord{}, false
	}
	return rec, true
}

// digest GETs and validates n's (jobID, version) digest.
func (p peerClient) digest(ctx context.Context, n Node) ([]DigestEntry, error) {
	status, body, err := p.do(ctx, http.MethodGet, n.URL+DigestPath, nil, maxPeerRecordBytes)
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
	status, _, err := p.do(ctx, http.MethodGet, n.URL+HealthPath, nil, maxPeerErrorBytes)
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
