package service

import (
	"crypto/sha256"
	"encoding/hex"
	"maps"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
)

// memoBound caps the /query2 memo: at this many answers it is cleared.
const memoBound = 512

// respCache is the read path's response state. Every read GET route
// answers with a strong content-hash ETag, and 304 to a client that
// already holds the bytes; only /query2, the read that traffic repeats
// between writes, also memoizes its rendered answers.
//
// The memo holds one store generation, the newest it has seen. Callers
// pass the generation they read before the handler touched any data;
// every acked write bumps it inside the store's publish critical
// section, so an answer rendered concurrently with a write carries the
// old generation, which no reader that observed the ack presents. So
// the first get or put under a newer generation drops every answer, and
// a put under an older one stores nothing.
type respCache struct {
	mu   sync.Mutex
	gen  uint64               // the generation every memoized answer was rendered under
	memo map[string]respEntry // /query2 raw query -> rendered answer

	hits, misses atomic.Uint64 // /query2 answers replayed from the memo, rendered
	notModified  atomic.Uint64 // 304s on every validated route
}

type respEntry struct {
	contentType string
	etag        string
	body        []byte
}

// respCacheStats is a point-in-time snapshot of the counters.
type respCacheStats struct {
	Hits, Misses, NotModified uint64
}

func (c *respCache) stats() respCacheStats {
	return respCacheStats{c.hits.Load(), c.misses.Load(), c.notModified.Load()}
}

// live moves the memo to gen if gen is newer, dropping every answer of
// the older generation, and reports whether gen is the live generation.
// Called with c.mu held.
func (c *respCache) live(gen uint64) bool {
	if gen > c.gen {
		c.gen = gen
		clear(c.memo)
	}
	return gen == c.gen
}

// get looks req up. A caller holding an older generation may be served
// a newer answer: it was published before the call returns.
func (c *respCache) get(gen uint64, req string) (respEntry, bool) {
	c.mu.Lock()
	c.live(gen)
	e, ok := c.memo[req]
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return e, ok
}

func (c *respCache) put(gen uint64, req string, e respEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.live(gen) {
		if len(c.memo) >= memoBound {
			clear(c.memo)
		}
		c.memo[req] = e
	}
}

// etagFor is the strong content-hash validator: quoted first 16 bytes
// of the body's SHA-256 in hex.
func etagFor(body []byte) string {
	sum := sha256.Sum256(body)
	return `"` + hex.EncodeToString(sum[:16]) + `"`
}

// bodyRecorder captures a handler's status, headers and body.
type bodyRecorder struct {
	header http.Header
	status int
	body   []byte
}

func (r *bodyRecorder) Header() http.Header { return r.header }

func (r *bodyRecorder) WriteHeader(code int) {
	if r.status == http.StatusOK {
		r.status = code
	}
}

func (r *bodyRecorder) Write(p []byte) (int, error) {
	r.body = append(r.body, p...)
	return len(p), nil
}

// validated wraps a read-only GET handler with the content-hash
// validator. With memo set it also memoizes the 200 answers under the
// store generation read before the handler runs (see respCache).
func (s *Server) validated(h http.HandlerFunc, memo bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var gen uint64
		if memo {
			gen = s.store.gen()
			if e, ok := s.resp.get(gen, r.URL.RawQuery); ok {
				// A hit executed nothing, so it replays only Content-Type
				// and ETag: execution detail like X-Granula-Scanned
				// would be a lie here.
				s.answer(w, r, e, http.Header{"Content-Type": {e.contentType}})
				return
			}
		}
		rec := &bodyRecorder{header: http.Header{}, status: http.StatusOK}
		h(rec, r)
		if rec.header.Get(liveHeader) != "" || rec.status != http.StatusOK {
			// A live body moves without the store generation moving, so
			// a validator would pin stale data; errors are cheap to
			// recompute. Relay both verbatim, without the live marker.
			delete(rec.header, liveHeader)
			maps.Copy(w.Header(), rec.header)
			w.WriteHeader(rec.status)
			w.Write(rec.body)
			return
		}
		e := respEntry{contentType: rec.header.Get("Content-Type"), etag: etagFor(rec.body), body: rec.body}
		if memo {
			s.resp.put(gen, r.URL.RawQuery, e)
		}
		// The execution path replays every header the handler set.
		s.answer(w, r, e, rec.header)
	}
}

// answer writes e, or a 304 when the client already holds these exact
// bytes: the tag is a content hash, so that holds across generations.
func (s *Server) answer(w http.ResponseWriter, r *http.Request, e respEntry, header http.Header) {
	if e.etag == r.Header.Get("If-None-Match") {
		s.resp.notModified.Add(1)
		w.Header().Set("ETag", e.etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	maps.Copy(w.Header(), header)
	w.Header().Set("ETag", e.etag)
	w.Header().Set("Content-Length", strconv.Itoa(len(e.body)))
	w.Write(e.body)
}
