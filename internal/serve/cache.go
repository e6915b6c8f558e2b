package serve

import (
	"container/list"
	"sync"

	"repro/internal/jobkey"
)

// Cache is the bounded, concurrency-safe content-addressed result store:
// marshaled result bodies keyed by jobkey.Key, evicted least-recently-used
// once the entry bound is reached. Because every simulation is a pure
// function of its key material (bit-determinism is pinned by the parity
// and differential suites), a hit can replay the stored bytes verbatim —
// the response is byte-identical to recomputing.
type Cache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List                   // guarded by mu; front = most recently used
	byKey map[jobkey.Key]*list.Element // guarded by mu

	hits, misses, evictions uint64 // guarded by mu
	bytes                   int64  // guarded by mu

	// disk, when set, backs the LRU with a persistent tier: entries are
	// written through on Put and a memory miss falls back to a disk load,
	// so results survive both eviction and process restarts.
	disk *DiskStore
}

// cacheEntry is one stored result body.
type cacheEntry struct {
	key  jobkey.Key
	body []byte
}

// DefaultCacheEntries bounds the store when the configuration does not.
const DefaultCacheEntries = 4096

// NewCache builds an empty store holding at most entries results;
// entries <= 0 selects DefaultCacheEntries.
func NewCache(entries int) *Cache {
	if entries <= 0 {
		entries = DefaultCacheEntries
	}
	return &Cache{
		cap:   entries,
		ll:    list.New(),
		byKey: make(map[jobkey.Key]*list.Element, entries),
	}
}

// SetDisk attaches the persistent tier. Call before the cache starts
// serving; the store has its own lock, so no cache mutex is held during
// disk I/O.
func (c *Cache) SetDisk(d *DiskStore) { c.disk = d }

// Get returns the stored result body for k, marking it most recently used.
// On a memory miss it consults the disk tier (when attached) and promotes
// a disk hit back into the LRU. The returned slice is the cached backing
// array: callers must treat it as immutable (the server only ever writes
// it to a response).
func (c *Cache) Get(k jobkey.Key) ([]byte, bool) {
	if body, ok := c.getMemory(k); ok {
		return body, true
	}
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	if c.disk == nil {
		return nil, false
	}
	body, ok := c.disk.Load(k)
	if !ok {
		return nil, false
	}
	// Promote without re-writing disk: the entry just came from there. A
	// racing promotion of the same key is harmless — insert is idempotent.
	c.mu.Lock()
	c.insert(k, body)
	c.mu.Unlock()
	return body, true
}

// getMemory is Get restricted to the memory tier: a hit counts and
// refreshes recency like any other, a miss counts nothing and reads no
// disk — so it is safe to call with another mutex held.
func (c *Cache) getMemory(k jobkey.Key) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[k]
	if !ok {
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// Put stores the result body for k, evicting the least-recently-used entry
// when the store is full, and writes through to the disk tier when one is
// attached. Storing an existing key refreshes its recency but keeps the
// original body — content addressing guarantees they are equal.
func (c *Cache) Put(k jobkey.Key, body []byte) {
	c.mu.Lock()
	if el, ok := c.byKey[k]; ok {
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	c.insert(k, body)
	c.mu.Unlock()
	if c.disk != nil {
		c.disk.Save(k, body)
	}
}

// insert adds a new entry to the LRU, evicting as needed. Caller holds mu
// and has established k is absent (a racing duplicate is tolerated: the
// bodies are identical by content addressing, the older entry just ages
// out).
func (c *Cache) insert(k jobkey.Key, body []byte) {
	if el, ok := c.byKey[k]; ok {
		c.ll.MoveToFront(el)
		return
	}
	for c.ll.Len() >= c.cap {
		oldest := c.ll.Back()
		if oldest == nil {
			break
		}
		ent := oldest.Value.(*cacheEntry)
		c.ll.Remove(oldest)
		delete(c.byKey, ent.key)
		c.bytes -= int64(len(ent.body))
		c.evictions++
	}
	c.byKey[k] = c.ll.PushFront(&cacheEntry{key: k, body: body})
	c.bytes += int64(len(body))
}

// Len returns the current entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// CacheStats is the store's observable state for the /stats endpoint.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
	Bytes     int64  `json:"bytes"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`

	// Disk is the persistent tier's state, present only when a cache
	// directory is configured.
	Disk *DiskStats `json:"disk,omitempty"`
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	st := CacheStats{
		Entries:   c.ll.Len(),
		Capacity:  c.cap,
		Bytes:     c.bytes,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
	disk := c.disk
	c.mu.Unlock()
	if disk != nil {
		ds := disk.Stats()
		st.Disk = &ds
	}
	return st
}
