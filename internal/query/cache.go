package query

import (
	"container/list"
	"strings"
	"sync"
)

// Cache is a bounded LRU of compiled queries keyed on the normalized
// query string, so the lexer and parser run once per distinct query no
// matter how many times clients repeat it. A *Query is immutable after
// Parse (Select only reads it), so one compiled query is safely shared
// by concurrent callers. The hit path performs no allocations: one map
// lookup plus a list move.
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element // of *cacheEntry
	lru     list.List                // front is most recent, back the eviction candidate
	hits    uint64
	misses  uint64
}

type cacheEntry struct {
	key string
	q   *Query
}

// NewCache returns a compiled-query cache holding at most capacity
// queries; capacity < 1 selects 256.
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 256
	}
	return &Cache{cap: capacity, entries: make(map[string]*list.Element)}
}

// Parse returns the compiled form of input, from cache when the
// normalized string has been parsed before. Parse errors are returned
// uncached (they are cheap to rediscover and would otherwise occupy
// slots real queries want).
func (c *Cache) Parse(input string) (*Query, error) {
	key := Normalize(input)
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.hits++
		c.lru.MoveToFront(el)
		q := el.Value.(*cacheEntry).q
		c.mu.Unlock()
		return q, nil
	}
	c.misses++
	c.mu.Unlock()

	// Parse outside the lock: a slow parse must not block hits.
	q, err := Parse(input)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		// A concurrent miss beat us to it; keep the first compile.
		c.lru.MoveToFront(el)
		q = el.Value.(*cacheEntry).q
	} else {
		c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, q: q})
		if len(c.entries) > c.cap {
			delete(c.entries, c.lru.Remove(c.lru.Back()).(*cacheEntry).key)
		}
	}
	c.mu.Unlock()
	return q, nil
}

// Stats returns the lifetime hit/miss counters and the current size.
func (c *Cache) Stats() (hits, misses uint64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.entries)
}

// Normalize canonicalizes a query string for cache keying: runs of
// whitespace outside quoted strings collapse to one space and leading or
// trailing whitespace is dropped, while quoted strings (including their
// backslash escapes) are preserved byte-for-byte. Two inputs with the
// same normalization tokenize identically, so they compile to the same
// query.
func Normalize(input string) string {
	if isNormalized(input) {
		// Repeated queries from clients are usually byte-identical;
		// returning the input unchanged keeps the cache hit path
		// allocation-free.
		return input
	}
	var sb strings.Builder
	sb.Grow(len(input))
	pendingSpace := false
	i := 0
	for i < len(input) {
		ch := input[i]
		switch {
		case ch == ' ' || ch == '\t' || ch == '\n':
			if sb.Len() > 0 {
				pendingSpace = true
			}
			i++
		case ch == '"':
			if pendingSpace {
				sb.WriteByte(' ')
				pendingSpace = false
			}
			// Copy the quoted region verbatim, honoring the lexer's
			// backslash escapes; an unterminated string copies to the
			// end (Parse will reject it either way).
			j := i + 1
			for j < len(input) && input[j] != '"' {
				if input[j] == '\\' && j+1 < len(input) {
					j++
				}
				j++
			}
			if j < len(input) {
				j++ // include the closing quote
			}
			sb.WriteString(input[i:j])
			i = j
		default:
			if pendingSpace {
				sb.WriteByte(' ')
				pendingSpace = false
			}
			sb.WriteByte(ch)
			i++
		}
	}
	return sb.String()
}

// isNormalized reports whether Normalize would return input unchanged:
// no tabs or newlines outside quotes, no leading/trailing space, and no
// space runs outside quotes.
func isNormalized(s string) bool {
	if s == "" {
		return true
	}
	if s[0] == ' ' || s[len(s)-1] == ' ' {
		return false
	}
	prevSpace := false
	i := 0
	for i < len(s) {
		switch ch := s[i]; {
		case ch == '\t' || ch == '\n':
			return false
		case ch == ' ':
			if prevSpace {
				return false
			}
			prevSpace = true
			i++
		case ch == '"':
			prevSpace = false
			j := i + 1
			for j < len(s) && s[j] != '"' {
				if s[j] == '\\' && j+1 < len(s) {
					j++
				}
				j++
			}
			if j < len(s) {
				j++
			}
			i = j
		default:
			prevSpace = false
			i++
		}
	}
	return true
}
