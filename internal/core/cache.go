// Package core implements the COPA access point itself (§3): the CSI
// cache populated by overhearing nearby transmissions, the leader/follower
// ITS exchange carried in real marshaled control frames (with compressed
// CSI and precoder payloads), the strategy computation the leader runs,
// and the resulting coordinated transmission descriptors. Two APs wired to
// an in-memory medium run the full Fig. 5 timeline.
package core

import (
	"time"

	"copa/internal/channel"
	"copa/internal/mac"
)

// csiEntry is one cached channel observation.
type csiEntry struct {
	link *channel.Link
	at   time.Duration
}

// DefaultCacheEntries bounds a CSICache: an AP in a dense deployment
// overhears far more stations than it will ever coordinate with, and a
// per-sender table that only ever grows is a slow leak. 256 comfortably
// covers a floor's worth of neighbours.
const DefaultCacheEntries = 256

// CSICache stores channel estimates keyed by the address they were
// overheard from (§3.1: "caches the resulting CSI in a table indexed by
// sender address"). Entries older than the coherence time are stale and
// are not returned. The table is bounded: Put sweeps stale entries and,
// if the cache is still over its limit, drops the oldest observations.
type CSICache struct {
	coherence time.Duration
	max       int
	entries   map[mac.Addr]csiEntry
}

// NewCSICache returns a cache that considers entries fresh for the given
// coherence time, bounded to DefaultCacheEntries.
func NewCSICache(coherence time.Duration) *CSICache {
	return &CSICache{
		coherence: coherence,
		max:       DefaultCacheEntries,
		entries:   make(map[mac.Addr]csiEntry),
	}
}

// Put records a fresh estimate observed at virtual time now, sweeping
// the table back under its bound first.
func (c *CSICache) Put(addr mac.Addr, link *channel.Link, now time.Duration) {
	if len(c.entries) >= c.max {
		if _, exists := c.entries[addr]; !exists {
			c.Sweep(now)
		}
	}
	c.entries[addr] = csiEntry{link: link, at: now}
}

// Sweep drops every stale entry and then, if the table still holds max
// or more entries, the oldest fresh ones until one slot is free. It
// returns how many entries were removed. Put calls it automatically;
// long-running hosts can also call it on a timer to cap memory between
// bursts of traffic.
func (c *CSICache) Sweep(now time.Duration) int {
	n := c.Evict(now)
	for len(c.entries) >= c.max {
		var oldest mac.Addr
		oldestAt := time.Duration(-1)
		for addr, e := range c.entries {
			if oldestAt < 0 || e.at < oldestAt {
				oldest, oldestAt = addr, e.at
			}
		}
		delete(c.entries, oldest)
		mCacheEvictions.Inc()
		n++
	}
	return n
}

// Get returns the cached estimate for addr if it is still within the
// coherence time at now.
func (c *CSICache) Get(addr mac.Addr, now time.Duration) (*channel.Link, bool) {
	e, ok := c.entries[addr]
	if !ok {
		mCacheMisses.Inc()
		return nil, false
	}
	if now-e.at > c.coherence {
		mCacheMisses.Inc()
		return nil, false
	}
	mCacheHits.Inc()
	return e.link, true
}

// Evict removes stale entries; returns how many were dropped.
func (c *CSICache) Evict(now time.Duration) int {
	n := 0
	for addr, e := range c.entries {
		if now-e.at > c.coherence {
			delete(c.entries, addr)
			n++
		}
	}
	mCacheEvictions.Add(uint64(n))
	return n
}

// Len returns the number of cached entries (fresh or stale).
func (c *CSICache) Len() int { return len(c.entries) }
