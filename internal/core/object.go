// Package core implements the paper's primary contribution: in-memory
// result caching at BAD broker nodes. A broker maintains one ResultCache per
// backend subscription (a deduplicated channel subscription at the data
// cluster); a Manager owns all caches of a broker, enforces the global byte
// budget B, and implements the two families of caching strategies from
// Section IV:
//
//   - utility-driven eviction (LRU, LSC, LSCz, LSD, EXP): when the total
//     cached bytes exceed B, drop the tail object of the cache whose tail
//     has the least policy score (the value/size ratio derived from the
//     0/1-knapsack relaxation of Section IV-A);
//   - TTL-based expiration (TTL): every object is held for its cache's
//     time-to-live T_i = w_i*B / sum_k(w_k*rho_k) (eq. 7), where rho_i is
//     the estimated net growth rate (arrival minus consumption) of cache i
//     and w_i its weight (by default the number of attached subscribers).
//
// All timestamps are virtual-time offsets (time.Duration from an arbitrary
// epoch) so the same code serves the live broker and the discrete-event
// simulator.
package core

import (
	"time"
)

// Object is one result object produced by the data cluster for a backend
// subscription, as cached at the broker.
type Object struct {
	// ID uniquely identifies the object within its backend subscription.
	ID string
	// CacheID is the backend subscription the object belongs to.
	CacheID string
	// Timestamp is the production time at the data cluster; objects in a
	// cache are strictly ordered by Timestamp (head = newest).
	Timestamp time.Duration
	// Size is the object's size in bytes (s_ij in the paper).
	Size int64
	// FetchLatency is the estimated time to retrieve this object from the
	// data cluster instead of the cache (l_ij); the LSD policy uses it.
	FetchLatency time.Duration
	// Payload is the result content as the data cluster encoded it (the
	// JSON rows); it is served as these bytes, never re-encoded.
	Payload []byte
	// Peer marks an object that a sibling broker's cache served on a
	// miss, rather than the data cluster. Miss accounting still counts it
	// (the local cache genuinely missed) but it is excluded from cluster
	// fetch bytes and tallied under the peer-hit counters instead.
	Peer bool

	// insertedAt is when the object entered the cache.
	insertedAt time.Duration
	// expiresAt is insertedAt + cache TTL at insert time; only meaningful
	// under TTL/EXP policies.
	expiresAt time.Duration
	// subs is S(i,j): the subscribers still owed this object. Snapshotted
	// from the cache's subscriber set on insert and shrunk as subscribers
	// retrieve the object; when it becomes empty the object is consumed.
	subs map[string]struct{}

	// intrusive doubly-linked list pointers (towards newer / older).
	newer, older *Object
}

// PendingSubscribers returns how many attached subscribers have not yet
// retrieved the object (f_ij in the paper).
func (o *Object) PendingSubscribers() int { return len(o.subs) }

// InsertedAt returns when the object entered the cache.
func (o *Object) InsertedAt() time.Duration { return o.insertedAt }

// ExpiresAt returns the object's TTL deadline (zero unless a TTL-stamping
// policy is active).
func (o *Object) ExpiresAt() time.Duration { return o.expiresAt }

// AwaitedBy reports whether subscriber k has not yet retrieved the object.
func (o *Object) AwaitedBy(k string) bool {
	_, ok := o.subs[k]
	return ok
}
