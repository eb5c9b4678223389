package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"sync"
)

// respCache is a bounded LRU of rendered HTTP responses for the
// read-only archive endpoints (/archive, /query, /viz). It holds one
// store generation, the newest it has seen, and its entries are keyed
// on the request. Callers pass the generation they read before the
// handler touched any data: every acked write bumps the generation
// inside the store's publish critical section, so a response rendered
// concurrently with a write can only ever carry the old generation —
// which no reader that observed the write's ack will present. The first
// get or put carrying a newer generation therefore drops every entry,
// and a put carrying an older one is not stored: those bytes could
// never be hit again. Invalidation is O(1), the cache's memory is that
// of the live generation's entries, and a hit returns bytes identical
// to what the handler would render.
//
// Every 200 response carries a strong content-hash ETag. Because the
// tag hashes the body rather than the generation, a client revalidating
// with If-None-Match still gets 304 across writes that did not change
// the bytes it holds.
type respCache struct {
	mu      sync.Mutex
	cap     int
	gen     uint64                   // the generation every entry was rendered under
	entries map[string]*list.Element // request (METHOD path?rawquery) -> *respEntry
	lru     list.List                // front is most recent, back is next to evict

	hits        uint64
	misses      uint64
	notModified uint64
	evictions   uint64 // LRU evictions within a generation; dropped generations do not count
}

type respEntry struct {
	req         string
	contentType string
	etag        string
	body        []byte
}

// newRespCache returns a response cache holding at most capacity
// responses; capacity < 1 selects 512.
func newRespCache(capacity int) *respCache {
	if capacity < 1 {
		capacity = 512
	}
	return &respCache{cap: capacity, entries: make(map[string]*list.Element)}
}

// live moves the cache to gen if gen is newer, dropping every entry of
// the older generation, and reports whether gen is the live generation.
// Called with c.mu held.
func (c *respCache) live(gen uint64) bool {
	if gen > c.gen {
		c.gen = gen
		clear(c.entries)
		c.lru.Init()
	}
	return gen == c.gen
}

// respCacheStats is a point-in-time snapshot of the cache counters.
type respCacheStats struct {
	Hits        uint64
	Misses      uint64
	NotModified uint64
	Evictions   uint64
	Size        int
}

// stats returns the lifetime counters and current size.
func (c *respCache) stats() respCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return respCacheStats{
		Hits: c.hits, Misses: c.misses, NotModified: c.notModified,
		Evictions: c.evictions, Size: len(c.entries),
	}
}

func (c *respCache) get(gen uint64, req string) *respEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	var el *list.Element
	if c.live(gen) {
		el = c.entries[req]
	}
	if el == nil {
		c.misses++
		return nil
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*respEntry)
}

func (c *respCache) put(gen uint64, req, contentType, etag string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.live(gen) {
		return
	}
	if el, ok := c.entries[req]; ok {
		// A concurrent miss on the same key rendered the same bytes
		// (same generation, deterministic handlers); keep the first.
		c.lru.MoveToFront(el)
		return
	}
	c.entries[req] = c.lru.PushFront(&respEntry{req: req, contentType: contentType, etag: etag, body: body})
	if len(c.entries) > c.cap {
		delete(c.entries, c.lru.Remove(c.lru.Back()).(*respEntry).req)
		c.evictions++
	}
}

func (c *respCache) countNotModified() {
	c.mu.Lock()
	c.notModified++
	c.mu.Unlock()
}

// etagFor is the strong content-hash validator: quoted first 16 bytes
// of the body's SHA-256 in hex.
func etagFor(body []byte) string {
	sum := sha256.Sum256(body)
	return `"` + hex.EncodeToString(sum[:16]) + `"`
}

// bodyRecorder captures a handler's response so the cache middleware
// can hash, store, and replay it. Only the status and body are kept;
// Content-Type is read back from the shared header map.
type bodyRecorder struct {
	header http.Header
	status int
	body   []byte
}

func newBodyRecorder() *bodyRecorder {
	return &bodyRecorder{header: http.Header{}, status: http.StatusOK}
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

// cached wraps a read-only GET handler with the response cache. The
// store generation is read before the handler (or the cache) is
// consulted — see the respCache doc comment for why that ordering makes
// a write invalidate every stale body. When the cache is disabled the
// handler runs bare, byte-identical by construction (this is what the
// equivalence tests pin).
func (s *Server) cached(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.resp == nil {
			h(w, r)
			return
		}
		gen := s.store.gen()
		req := r.Method + " " + r.URL.Path + "?" + r.URL.RawQuery

		serve := func(contentType, etag string, body []byte) {
			if etag == r.Header.Get("If-None-Match") && etag != "" {
				// The client already holds these exact bytes; the tag is
				// a content hash, so this holds across generations too.
				s.resp.countNotModified()
				w.Header().Set("ETag", etag)
				w.WriteHeader(http.StatusNotModified)
				return
			}
			if contentType != "" {
				w.Header().Set("Content-Type", contentType)
			}
			w.Header().Set("ETag", etag)
			w.Write(body)
		}

		if e := s.resp.get(gen, req); e != nil {
			serve(e.contentType, e.etag, e.body)
			return
		}
		rec := newBodyRecorder()
		h(rec, r)
		if rec.header.Get(liveHeader) != "" {
			// The body was computed from a still-streaming job: its bytes
			// move without the store generation moving, so caching or
			// tagging it would pin stale data. Replay verbatim; once the
			// job seals and publishes, responses drop the marker and cache
			// normally under the bumped generation.
			for k, vs := range rec.header {
				if k == liveHeader {
					continue
				}
				w.Header()[k] = vs
			}
			w.WriteHeader(rec.status)
			w.Write(rec.body)
			return
		}
		if rec.status != http.StatusOK {
			// Errors are cheap to recompute and must not occupy slots;
			// replay them verbatim without a validator.
			for k, vs := range rec.header {
				w.Header()[k] = vs
			}
			w.WriteHeader(rec.status)
			w.Write(rec.body)
			return
		}
		contentType := rec.header.Get("Content-Type")
		etag := etagFor(rec.body)
		s.resp.put(gen, req, contentType, etag, rec.body)
		if etag == r.Header.Get("If-None-Match") {
			s.resp.countNotModified()
			w.Header().Set("ETag", etag)
			w.WriteHeader(http.StatusNotModified)
			return
		}
		// The execution path replays every header the handler set —
		// auxiliary headers like X-Granula-Scanned describe this one
		// run. Cache hits go through serve and replay only
		// Content-Type and ETag: a hit executed nothing, so execution
		// detail would be a lie there.
		for k, vs := range rec.header {
			w.Header()[k] = vs
		}
		w.Header().Set("ETag", etag)
		w.Write(rec.body)
	}
}
