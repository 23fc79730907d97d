package core

import (
	"fmt"
	"time"

	"gobad/internal/metrics"
)

// ResultCache is the sorted in-memory result list of one backend
// subscription: objects ordered by descending timestamp, with the newest at
// the head and the oldest at the tail. New results are pushed at the head;
// evictions always remove the tail (Section IV-A's observation that only
// tail objects need be eviction candidates).
type ResultCache struct {
	id string

	head *Object // newest
	tail *Object // oldest
	n    int
	size int64 // sum of object sizes in bytes

	// subs is S(i): subscribers currently attached to this cache's
	// backend subscription.
	subs map[string]struct{}

	// lastAccess is the last time a subscriber retrieved from this cache
	// (LRU's recency signal).
	lastAccess time.Duration

	// ttl is the currently assigned time-to-live T_i for this cache.
	ttl time.Duration

	// completeSince is the coverage mark: the largest timestamp of any
	// object ever dropped from this cache — evicted, expired or consumed.
	// The cache is guaranteed to hold every result with a timestamp
	// strictly greater than the mark, so retrievals above it need no
	// backend fetch. A consumed object counts: the response that consumed
	// it can be lost, and the subscriber's retry must then miss and
	// re-fetch it rather than be told the range is empty.
	completeSince time.Duration

	// arrival and consumption estimate lambda_i and eta_i in bytes/s.
	arrival     *rateEstimator
	consumption *rateEstimator

	// holding tracks this cache's object holding times (seconds); the
	// Fig. 5(b) analysis compares per-cache holding time with TTL.
	holding metrics.Mean

	// ttlStamped tracks the TTLs stamped onto inserted objects (seconds),
	// so holding times can be compared against what objects were actually
	// promised rather than the final TTL value.
	ttlStamped metrics.Mean

	// seq invalidates stale victim/expiry heap entries; bumped whenever
	// the tail-derived policy score may have changed.
	seq uint64
}

func newResultCache(id string, now time.Duration, rateWindow time.Duration, rateAlpha float64) *ResultCache {
	return &ResultCache{
		id:          id,
		subs:        make(map[string]struct{}),
		lastAccess:  now,
		arrival:     newRateEstimator(rateWindow, rateAlpha),
		consumption: newRateEstimator(rateWindow, rateAlpha),
	}
}

// ID returns the backend subscription identifier this cache serves.
func (c *ResultCache) ID() string { return c.id }

// Len returns the number of cached objects.
func (c *ResultCache) Len() int { return c.n }

// Size returns the total cached bytes.
func (c *ResultCache) Size() int64 { return c.size }

// Head returns the newest cached object (nil when empty).
func (c *ResultCache) Head() *Object { return c.head }

// Tail returns the oldest cached object (nil when empty).
func (c *ResultCache) Tail() *Object { return c.tail }

// Subscribers returns n_i, the number of attached subscribers.
func (c *ResultCache) Subscribers() int { return len(c.subs) }

// HasSubscriber reports whether subscriber k is attached.
func (c *ResultCache) HasSubscriber(k string) bool {
	_, ok := c.subs[k]
	return ok
}

// LastAccess returns the last retrieval time (LRU recency).
func (c *ResultCache) LastAccess() time.Duration { return c.lastAccess }

// TTL returns the cache's currently assigned time-to-live T_i.
func (c *ResultCache) TTL() time.Duration { return c.ttl }

// HoldingTime returns the mean time (seconds) objects dropped from this
// cache were held, and how many drops were observed.
func (c *ResultCache) HoldingTime() (mean float64, n int64) {
	return c.holding.Mean(), c.holding.N()
}

// GrowthRate returns rho_i = max(0, lambda_i - eta_i) in bytes/s.
func (c *ResultCache) GrowthRate(now time.Duration) float64 {
	rho := c.arrival.Rate(now) - c.consumption.Rate(now)
	if rho < 0 {
		return 0
	}
	return rho
}

// pushHead inserts obj as the newest object. Timestamps must be strictly
// increasing head-ward.
func (c *ResultCache) pushHead(obj *Object) error {
	if c.head != nil && obj.Timestamp <= c.head.Timestamp {
		return fmt.Errorf("core: out-of-order insert into cache %s: ts %v <= head ts %v",
			c.id, obj.Timestamp, c.head.Timestamp)
	}
	obj.older = c.head
	obj.newer = nil
	if c.head != nil {
		c.head.newer = obj
	}
	c.head = obj
	if c.tail == nil {
		c.tail = obj
	}
	c.n++
	c.size += obj.Size
	return nil
}

// remove unlinks obj from the cache. The caller must ensure obj belongs to
// this cache.
func (c *ResultCache) remove(obj *Object) {
	if obj.newer != nil {
		obj.newer.older = obj.older
	} else {
		c.head = obj.older
	}
	if obj.older != nil {
		obj.older.newer = obj.newer
	} else {
		c.tail = obj.newer
	}
	obj.newer, obj.older = nil, nil
	c.n--
	c.size -= obj.Size
}

// ascend iterates objects from oldest to newest, stopping early if fn
// returns false. fn may not mutate the list.
func (c *ResultCache) ascend(fn func(*Object) bool) {
	for o := c.tail; o != nil; o = o.newer {
		if !fn(o) {
			return
		}
	}
}

// objectsInRange collects cached objects with from < ts <= to, oldest
// first. The list is timestamp-ordered, so the matches form one contiguous
// span starting at the newest end: walk head-backward to its start — O(span
// + objects above to), not O(total) — counting as we go, then fill a slice
// allocated to the exact size.
func (c *ResultCache) objectsInRange(from, to time.Duration) []*Object {
	var start *Object
	span := 0
	for o := c.head; o != nil && o.Timestamp > from; o = o.older {
		if o.Timestamp <= to {
			start = o
			span++
		}
	}
	if span == 0 {
		return nil
	}
	out := make([]*Object, span)
	for i, o := 0, start; i < span; i, o = i+1, o.newer {
		out[i] = o
	}
	return out
}
