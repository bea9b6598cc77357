package solvecache

import (
	"container/list"
	"sync"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/signal"
)

// DefaultSize is the entry bound used when NewCache is given a
// non-positive size.
const DefaultSize = 64

// Cache is a bounded, mutex-guarded LRU of solved results keyed by content
// hash. Alongside the exact-match index it keeps a per-family index — the
// most recently touched entry of each (grid shape, group count, options)
// bucket — which is the base-candidate lookup for incremental re-routing.
//
// Cached *core.Results are shared by every hit and must be treated as
// immutable by callers; Solve returns a shallow per-request copy of the
// Result struct itself so response-level fields can be adapted safely.
type Cache struct {
	mu       sync.Mutex
	max      int
	ll       *list.List // front = most recently used; values are *entry
	byKey    map[Key]*list.Element
	byFamily map[uint64]*list.Element

	hits, misses, incrementals  int64
	coldFallbacks, auditRejects int64
	evictions, invalidatedSum   int64
}

type entry struct {
	key    Key
	family uint64
	design *signal.Design // private deep copy: the incremental diff base
	result *core.Result   // immutable once cached
	audit  audit.Report   // legality report, clean by insertion contract
}

// NewCache creates a cache bounded to size entries (DefaultSize when
// size <= 0).
func NewCache(size int) *Cache {
	if size <= 0 {
		size = DefaultSize
	}
	return &Cache{
		max:      size,
		ll:       list.New(),
		byKey:    make(map[Key]*list.Element),
		byFamily: make(map[uint64]*list.Element),
	}
}

// Len returns the current entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats is a point-in-time snapshot of the cache counters, exported on
// streakd's /healthz.
type Stats struct {
	// Entries is the live entry count (bounded by the configured size).
	Entries int `json:"entries"`
	// Hits counts exact content-hash hits served straight from the cache.
	Hits int64 `json:"hits"`
	// Misses counts lookups that found no exact entry.
	Misses int64 `json:"misses"`
	// Incrementals counts misses served by incremental re-routing from a
	// cached base design.
	Incrementals int64 `json:"incrementals"`
	// ColdFallbacks counts incremental attempts abandoned for a full cold
	// solve (rebuild or solver failure, or an audit rejection).
	ColdFallbacks int64 `json:"cold_fallbacks"`
	// AuditRejects counts incremental results the legality audit rejected;
	// each is also a cold fallback.
	AuditRejects int64 `json:"audit_rejects"`
	// Evictions counts entries dropped by the LRU bound.
	Evictions int64 `json:"evictions"`
	// InvalidatedObjects sums the objects regenerated across all
	// incremental rebuilds: the objects of the groups whose pins moved.
	InvalidatedObjects int64 `json:"invalidated_objects"`
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:            c.ll.Len(),
		Hits:               c.hits,
		Misses:             c.misses,
		Incrementals:       c.incrementals,
		ColdFallbacks:      c.coldFallbacks,
		AuditRejects:       c.auditRejects,
		Evictions:          c.evictions,
		InvalidatedObjects: c.invalidatedSum,
	}
}

// get returns the entry for k, promoting it to most-recently-used, and
// counts the hit or miss.
func (c *Cache) get(k Key) *entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[k]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.touch(el)
	return el.Value.(*entry)
}

// base returns the most recently used entry of the family, or nil. It does
// not count hits or misses — the exact lookup already did.
func (c *Cache) base(family uint64) *entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byFamily[family]
	if !ok {
		return nil
	}
	return el.Value.(*entry)
}

// insert stores a solved entry, replacing any entry with the same key and
// evicting from the LRU tail past the size bound.
func (c *Cache) insert(e *entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[e.key]; ok {
		el.Value = e
		c.touch(el)
		c.byFamily[e.family] = el
		return
	}
	el := c.ll.PushFront(e)
	c.byKey[e.key] = el
	c.byFamily[e.family] = el
	for c.ll.Len() > c.max {
		c.evict(c.ll.Back())
	}
}

// touch moves an element to the front and repoints its family index.
func (c *Cache) touch(el *list.Element) {
	c.ll.MoveToFront(el)
	c.byFamily[el.Value.(*entry).family] = el
}

// evict drops an element; a family index pointing at it is dropped too
// (an older same-family entry, if any, is simply no longer reachable as a
// delta base — correct, just less lucky).
func (c *Cache) evict(el *list.Element) {
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.byKey, e.key)
	if c.byFamily[e.family] == el {
		delete(c.byFamily, e.family)
	}
	c.evictions++
}

func (c *Cache) noteIncremental(invalidated int) {
	c.mu.Lock()
	c.incrementals++
	c.invalidatedSum += int64(invalidated)
	c.mu.Unlock()
}

func (c *Cache) noteColdFallback(auditReject bool) {
	c.mu.Lock()
	c.coldFallbacks++
	if auditReject {
		c.auditRejects++
	}
	c.mu.Unlock()
}
