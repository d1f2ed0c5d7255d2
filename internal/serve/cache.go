package serve

import "container/list"

// lruCache is the bounded result cache: a map for O(1) lookup plus an
// intrusive recency list. It is not self-locking — the Server guards it
// with its own mutex so a cache hit costs one lock, one map lookup and
// one list splice, none of which allocate (the zero-steady-state-alloc
// contract BenchmarkServeAllocateCached pins).
//
// The cache also keeps its own cumulative hit/miss/eviction counts.
// The package-level obs counters aggregate across every Server in the
// process; these instance counts are what /v1/healthz reports, so a
// router fronting N copaserve shards can read each shard's cache
// occupancy and balance from its health probe alone. The counts are
// plain integers mutated under the Server mutex and mirrored into the
// copa.serve.cache.* gauges (atomic stores — the hit path stays
// allocation-free).
type lruCache struct {
	max   int
	ll    *list.List // front = most recently used
	items map[key]*list.Element

	hits      uint64
	misses    uint64
	evictions uint64
}

// lruEntry is one cached result with its key for reverse eviction.
type lruEntry struct {
	k   key
	res *Result
}

// newLRUCache returns a cache bounded to max entries; max < 0 disables
// caching entirely (every get misses, every put is dropped).
func newLRUCache(max int) *lruCache {
	if max < 0 {
		max = 0
	}
	return &lruCache{max: max, ll: list.New(), items: make(map[key]*list.Element)}
}

// get returns the cached result for k, refreshing its recency.
func (c *lruCache) get(k key) (*Result, bool) {
	e, ok := c.items[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(e)
	return e.Value.(*lruEntry).res, true
}

// put inserts or refreshes k, evicting the least recently used entry
// when the bound is exceeded.
func (c *lruCache) put(k key, res *Result) {
	if c.max == 0 {
		return
	}
	if e, ok := c.items[k]; ok {
		e.Value.(*lruEntry).res = res
		c.ll.MoveToFront(e)
		return
	}
	c.items[k] = c.ll.PushFront(&lruEntry{k: k, res: res})
	for len(c.items) > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).k)
		c.evictions++
		mCacheEvictions.Inc()
	}
	gCacheEntries.Set(float64(len(c.items)))
}

// len returns the number of cached entries.
func (c *lruCache) len() int { return len(c.items) }

// CacheStats is one cache's cumulative and point-in-time reading —
// the per-shard numbers a fronting router observes shard balance with.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
}

// stats snapshots the cache counters; callers hold the Server mutex.
func (c *lruCache) stats() CacheStats {
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   len(c.items),
		Capacity:  c.max,
	}
}
