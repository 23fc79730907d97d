package core

import (
	"container/heap"
)

// cacheHeap is a lazy min-heap over caches keyed by a float64 score. The
// Manager pushes a fresh entry whenever a cache's score may have changed
// (bumping the cache's seq); stale entries are skipped on pop. This gives
// the logarithmic-time victim selection the paper calls for ("by using
// appropriate data structure (e.g., heap), this can be implemented in
// logarithmic order").
type cacheHeap struct {
	entries heapEntries
}

type heapEntry struct {
	score float64
	seq   uint64
	cache *ResultCache
}

type heapEntries []heapEntry

func (h heapEntries) Len() int { return len(h) }

// Less orders by score, breaking ties by cache ID so victim selection is
// deterministic regardless of map-iteration order at rebuild time.
func (h heapEntries) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score < h[j].score
	}
	return h[i].cache.id < h[j].cache.id
}
func (h heapEntries) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *heapEntries) Push(x any)   { *h = append(*h, x.(heapEntry)) }
func (h *heapEntries) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// push records a (possibly updated) score for c.
func (ch *cacheHeap) push(c *ResultCache, score float64) {
	heap.Push(&ch.entries, heapEntry{score: score, seq: c.seq, cache: c})
}

// popFresh returns the non-stale, non-empty cache with the smallest score,
// or nil if none remains. An entry is fresh iff its seq matches the cache's
// current seq.
func (ch *cacheHeap) popFresh() *ResultCache {
	for ch.entries.Len() > 0 {
		e := heap.Pop(&ch.entries).(heapEntry)
		if e.seq == e.cache.seq && e.cache.n > 0 {
			return e.cache
		}
	}
	return nil
}

// peekFresh returns the best fresh entry without removing it.
func (ch *cacheHeap) peekFresh() (*ResultCache, float64, bool) {
	for ch.entries.Len() > 0 {
		e := ch.entries[0]
		if e.seq != e.cache.seq || e.cache.n == 0 {
			heap.Pop(&ch.entries)
			continue
		}
		return e.cache, e.score, true
	}
	return nil, 0, false
}

// rebuild replaces the entries, stale ones included, with one fresh entry
// per non-empty cache.
func (ch *cacheHeap) rebuild(caches map[string]*ResultCache, score func(*ResultCache) float64) {
	ch.entries = ch.entries[:0]
	for _, c := range caches {
		if c.n > 0 {
			ch.push(c, score(c))
		}
	}
}

// size returns the number of (possibly stale) entries held.
func (ch *cacheHeap) size() int { return ch.entries.Len() }
