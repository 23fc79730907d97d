package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"gobad/internal/metrics"
	"gobad/internal/obs"
)

// Fetcher retrieves result objects from the data cluster on a cache miss.
// It returns the objects with from < Timestamp < to (or <= to when
// inclusiveTo is set), oldest first. The context bounds the backend call;
// implementations should abandon the fetch when it is cancelled.
// Implementations: the broker's REST client and the simulator's backend
// model.
type Fetcher interface {
	Fetch(ctx context.Context, cacheID string, from, to time.Duration, inclusiveTo bool) ([]*Object, error)
}

// FetcherFunc adapts a function to the Fetcher interface.
type FetcherFunc func(ctx context.Context, cacheID string, from, to time.Duration, inclusiveTo bool) ([]*Object, error)

// Fetch implements Fetcher.
func (f FetcherFunc) Fetch(ctx context.Context, cacheID string, from, to time.Duration, inclusiveTo bool) ([]*Object, error) {
	return f(ctx, cacheID, from, to, inclusiveTo)
}

// TTLWeighting selects the per-cache weight w_i in the TTL formula
// T_i = w_i * B / sum_k(w_k * rho_k); any weighting satisfies the
// expected-size constraint sum_i(rho_i * T_i) = B (eq. 5).
type TTLWeighting int

const (
	// WeightBySubscribers sets w_i = n_i, the number of subscribers
	// attached to cache i (eq. 7, the paper's choice).
	WeightBySubscribers TTLWeighting = iota
	// WeightUniform sets w_i = 1, giving every cache the same TTL.
	WeightUniform
)

// TTLConfig tunes TTL-based caching (Section IV-B). The zero value selects
// the defaults documented on each field.
type TTLConfig struct {
	// RecomputeInterval is how often the broker recomputes all TTLs from
	// the rate estimates; the paper suggests "every 5 minutes".
	// Default 5m.
	RecomputeInterval time.Duration
	// RateWindow is the averaging window of the lambda/eta estimators.
	// Default 30s.
	RateWindow time.Duration
	// RateAlpha is the EWMA smoothing factor of the estimators.
	// Default 0.3.
	RateAlpha float64
	// Weighting selects w_i. Default WeightBySubscribers.
	Weighting TTLWeighting
	// MinTTL / MaxTTL clamp computed TTLs. Defaults 1s and 1h.
	MinTTL, MaxTTL time.Duration
	// DefaultTTL is used before the first recompute and when every
	// growth rate estimates to zero. Default 5m.
	DefaultTTL time.Duration
}

func (c *TTLConfig) fillDefaults() {
	if c.RecomputeInterval <= 0 {
		c.RecomputeInterval = 5 * time.Minute
	}
	if c.RateWindow <= 0 {
		c.RateWindow = 30 * time.Second
	}
	if c.RateAlpha <= 0 || c.RateAlpha > 1 {
		c.RateAlpha = 0.3
	}
	if c.MinTTL <= 0 {
		c.MinTTL = time.Second
	}
	if c.MaxTTL <= 0 {
		c.MaxTTL = time.Hour
	}
	if c.DefaultTTL <= 0 {
		c.DefaultTTL = 5 * time.Minute
	}
}

// Config configures a Manager.
type Config struct {
	// Policy is the caching policy; required.
	Policy Policy
	// Budget is the allowed total cache size B in bytes; required > 0
	// unless the policy is NC.
	Budget int64
	// Fetcher serves cache misses from the data cluster; required.
	Fetcher Fetcher
	// TTL tunes TTL/EXP behaviour; ignored by other policies.
	TTL TTLConfig
	// Stats receives hit/miss/latency/cache-size accounting; optional.
	Stats *metrics.CacheStats
	// StaleServe degrades gracefully when the data cluster is
	// unreachable: instead of failing a retrieval whose miss fetch
	// errored, serve whatever the cache holds and mark the result stale
	// (RetrievalInfo.Stale). Off, fetch errors propagate as before.
	StaleServe bool
}

// Manager owns every result cache of one broker: it creates caches per
// backend subscription, admits new result objects, serves subscriber
// retrievals with Algorithm 1's range logic, and enforces the configured
// caching policy. One mutex guards the cache table, both heaps and the byte
// total, so an eviction policy is within its budget at every instant another
// goroutine can look; miss fetches, their single-flight coalescing and the
// stats counters run outside it.
type Manager struct {
	policy     Policy
	budget     int64
	fetcher    Fetcher
	ttlCfg     TTLConfig
	stats      *metrics.CacheStats
	staleServe bool

	flights flightGroup  // coalesces duplicate miss fetches
	rhoTTL  metrics.Mean // sum_i(rho_i * T_i) observed at recomputes

	mu      sync.Mutex // guards every field below
	caches  map[string]*ResultCache
	victims cacheHeap // by policy score (eviction policies)
	expiry  cacheHeap // by tail expiry (TTL policy)
	total   int64     // total cached bytes
	// lastSize turns recordSize into a delta feed so several managers
	// (the multi-broker sim) can share one CacheStats: each manager adds
	// only its own size change, and the shared CacheSize gauge tracks the
	// fabric-wide total.
	lastSize int64
}

// ErrNoFetcher is returned when a cache miss occurs but no Fetcher was
// configured.
var ErrNoFetcher = errors.New("core: cache miss but no fetcher configured")

// NewManager validates cfg and returns a ready Manager.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Policy == nil {
		return nil, errors.New("core: Config.Policy is required")
	}
	if _, isNC := cfg.Policy.(NC); !isNC && cfg.Budget <= 0 {
		return nil, fmt.Errorf("core: Config.Budget must be positive for policy %s", cfg.Policy.Name())
	}
	cfg.TTL.fillDefaults()
	return &Manager{
		policy:     cfg.Policy,
		budget:     cfg.Budget,
		fetcher:    cfg.Fetcher,
		ttlCfg:     cfg.TTL,
		stats:      cfg.Stats,
		staleServe: cfg.StaleServe,
		caches:     make(map[string]*ResultCache),
	}, nil
}

// Policy returns the configured caching policy.
func (m *Manager) Policy() Policy { return m.policy }

// Budget returns the allowed cache size B in bytes.
func (m *Manager) Budget() int64 { return m.budget }

// TotalSize returns the total bytes currently cached across all caches.
func (m *Manager) TotalSize() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// NumCaches returns the number of result caches (backend subscriptions).
func (m *Manager) NumCaches() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.caches)
}

// FlightStats reports the singleflight layer's lifetime tallies: leaders
// executed a backend fetch themselves, coalesced callers joined one already
// in flight.
func (m *Manager) FlightStats() (leaders, coalesced uint64) {
	return m.flights.leaders.Load(), m.flights.coalesced.Load()
}

// Collect implements obs.Collector: the manager's live structure — budget,
// totals and the singleflight coalescing tallies.
func (m *Manager) Collect(emit func(obs.Family)) {
	family := func(name, help string, typ obs.MetricType, v float64) {
		emit(obs.Family{Name: name, Help: help, Type: typ, Points: []obs.Point{{Value: v}}})
	}
	family("bad_cache_budget_bytes", "Configured cache budget B.", obs.GaugeType, float64(m.Budget()))
	family("bad_cache_total_bytes", "Total cached bytes across all caches.", obs.GaugeType, float64(m.TotalSize()))
	family("bad_cache_caches", "Live result caches (backend subscriptions).", obs.GaugeType, float64(m.NumCaches()))
	leaders, coalesced := m.FlightStats()
	family("bad_singleflight_leader_total", "Miss fetches executed against the data cluster.", obs.CounterType, float64(leaders))
	family("bad_singleflight_coalesced_total", "Miss fetches coalesced onto an in-flight leader.", obs.CounterType, float64(coalesced))
}

// Cache returns the cache for a backend subscription, or nil.
func (m *Manager) Cache(id string) *ResultCache {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.caches[id]
}

// TTLRecomputeInterval returns the configured TTL recompute period.
func (m *Manager) TTLRecomputeInterval() time.Duration { return m.ttlCfg.RecomputeInterval }

// RhoTTLSum returns the mean of sum_i(rho_i*T_i) observed at TTL
// recomputations; per eq. (5) it should track the budget B (Fig. 5a's
// "sum rho_i T_i" bar).
func (m *Manager) RhoTTLSum() float64 { return m.rhoTTL.Mean() }

// isNC reports whether caching is disabled.
func (m *Manager) isNC() bool {
	_, ok := m.policy.(NC)
	return ok
}

// Subscribe attaches subscriber k to backend subscription id, creating its
// cache if needed (Algorithm 1 SUBSCRIBE). Objects already cached are NOT
// owed to k: subscribers only receive results produced after they
// subscribe.
func (m *Manager) Subscribe(id, k string, now time.Duration) {
	if m.isNC() {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ensureCache(id, now).subs[k] = struct{}{}
}

// Unsubscribe detaches subscriber k from backend subscription id
// (Algorithm 1 UNSUBSCRIBE): k is removed from the cache's subscriber set
// and from every cached object's pending set; objects left with no pending
// subscribers are consumed.
func (m *Manager) Unsubscribe(id, k string, now time.Duration) {
	if m.isNC() {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.caches[id]
	if c == nil {
		return
	}
	delete(c.subs, k)
	var consumed []*Object
	c.ascend(func(o *Object) bool {
		if _, ok := o.subs[k]; ok {
			delete(o.subs, k)
			if len(o.subs) == 0 {
				consumed = append(consumed, o)
			}
		}
		return true
	})
	for _, o := range consumed {
		m.dropObject(c, o, now, dropConsumed)
	}
	m.touch(c, now)
	m.recordSize(now)
}

// DropCache removes the entire cache of a backend subscription (used when
// the broker tears the backend subscription down).
func (m *Manager) DropCache(id string, now time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.caches[id]
	if c == nil {
		return
	}
	for c.tail != nil {
		m.dropObject(c, c.tail, now, dropTeardown)
	}
	delete(m.caches, id)
	m.recordSize(now)
}

// ensureCache returns the cache for id, creating it if missing. Caller
// holds m.mu.
func (m *Manager) ensureCache(id string, now time.Duration) *ResultCache {
	c := m.caches[id]
	if c == nil {
		c = newResultCache(id, now, m.ttlCfg.RateWindow, m.ttlCfg.RateAlpha)
		if m.policy.StampTTL() {
			c.ttl = m.ttlCfg.DefaultTTL
		}
		m.caches[id] = c
	}
	return c
}

// Put admits a new result object into its cache (Algorithm 1 PUT): the
// object's pending-subscriber set is snapshotted from the cache's current
// subscriber set, the object is pushed at the head, and — under eviction
// policies — tail objects are dropped from the lowest-scored caches until
// the total size fits the budget again. Under NC the object is discarded.
func (m *Manager) Put(id string, obj *Object, now time.Duration) error {
	if obj == nil {
		return errors.New("core: Put of nil object")
	}
	if m.isNC() {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.ensureCache(id, now)
	obj.CacheID = id
	obj.insertedAt = now
	if m.policy.StampTTL() {
		ttl := c.ttl
		if ttl <= 0 {
			ttl = m.ttlCfg.DefaultTTL
		}
		obj.expiresAt = now + ttl
		c.ttlStamped.Observe(ttl.Seconds())
	}
	// Snapshot S(i,j) from S(i).
	obj.subs = make(map[string]struct{}, len(c.subs))
	for k := range c.subs {
		obj.subs[k] = struct{}{}
	}
	if err := c.pushHead(obj); err != nil {
		return err
	}
	m.total += obj.Size
	c.arrival.Observe(now, float64(obj.Size))
	m.touch(c, now)
	if m.policy.Evicts() {
		for m.total > m.budget && m.evictOne(now) {
		}
	}
	// Recorded only after the evictions: an eviction policy must never
	// report a size above its budget.
	m.recordSize(now)
	return nil
}

// evictOne drops the tail object of the lowest-scored cache (score ties
// broken by cache ID) and reports whether there was one. Every non-empty
// cache has a fresh heap entry (touch), so an exhausted heap means nothing
// is cached. Caller holds m.mu.
func (m *Manager) evictOne(now time.Duration) bool {
	victim := m.victims.popFresh()
	if victim == nil {
		return false
	}
	m.dropObject(victim, victim.tail, now, dropEvicted)
	m.touch(victim, now)
	return true
}

// touch invalidates c's heap entries and re-registers its current scores,
// compacting a heap whose lazy entries far outnumber the live caches.
// Caller holds m.mu.
func (m *Manager) touch(c *ResultCache, now time.Duration) {
	c.seq++
	if c.n == 0 {
		return
	}
	if m.policy.Evicts() {
		m.victims.push(c, m.policy.Score(c, now))
		if m.victims.size() > 4*len(m.caches)+64 {
			m.victims.rebuild(m.caches, func(c *ResultCache) float64 { return m.policy.Score(c, now) })
		}
	}
	if m.policy.AutoExpire() {
		m.expiry.push(c, float64(c.tail.expiresAt))
		if m.expiry.size() > 4*len(m.caches)+64 {
			m.expiry.rebuild(m.caches, func(c *ResultCache) float64 { return float64(c.tail.expiresAt) })
		}
	}
}

// drop reasons.
type dropReason int

const (
	dropEvicted dropReason = iota
	dropExpired
	dropConsumed
	// dropTeardown removes objects because their cache is being deleted;
	// it advances the coverage mark but counts toward no policy metric.
	dropTeardown
)

// dropObject unlinks o from c and records holding time, cache size and the
// reason counter. Caller holds m.mu and is responsible for calling
// touch(c, now) afterwards (batched by some call sites).
func (m *Manager) dropObject(c *ResultCache, o *Object, now time.Duration, reason dropReason) {
	c.remove(o)
	m.total -= o.Size
	if reason == dropConsumed {
		c.consumption.Observe(now, float64(o.Size))
	}
	if o.Timestamp > c.completeSince {
		// Every dropped object leaves a gap that future retrievals must
		// fill from the data cluster — a consumed one too: the GET that
		// consumed it may never have reached its subscriber, whose retry
		// asks for it again.
		c.completeSince = o.Timestamp
	}
	c.holding.Observe((now - o.insertedAt).Seconds())
	if m.stats != nil {
		m.stats.HoldingTime.Observe((now - o.insertedAt).Seconds())
		switch reason {
		case dropEvicted:
			m.stats.Evictions.Inc()
		case dropExpired:
			m.stats.Expirations.Inc()
		case dropConsumed:
			m.stats.Consumed.Inc()
		}
	}
}

// recordSize feeds the manager's size change since the last call into the
// time-weighted cache-size metric. It is called at operation boundaries
// (never mid-eviction) so the tracked maximum reflects steady
// post-operation sizes. Deltas rather than absolute sets let several
// managers share one CacheStats (the multi-broker sim): the gauge then
// tracks the summed total. Caller holds m.mu.
func (m *Manager) recordSize(now time.Duration) {
	if m.stats == nil {
		return
	}
	m.stats.CacheSize.Add(now, float64(m.total-m.lastSize))
	m.lastSize = m.total
}

// RetrievalInfo describes how Retrieve served a request.
type RetrievalInfo struct {
	// Stale is set when the miss fetch failed and the cached portion was
	// served anyway (StaleServe on): the result is complete above the
	// coverage mark but may be missing older objects.
	Stale bool
	// FetchErr is the data-cluster failure behind a stale serve (nil
	// when the retrieval was fully served).
	FetchErr error
}

// Retrieve serves a subscriber's retrieval of the results of
// backend subscription id in the half-open timestamp interval (from, to]
// (Algorithm 1 GET): objects present in the cache are returned as hits and
// marked retrieved by k (consuming objects whose pending set drains);
// objects at or below the cache's coverage mark were evicted or expired and
// are re-fetched from the data cluster via the Fetcher — and, per the
// paper, NOT cached again, because they are no longer sharable. The
// combined result is ordered oldest first. ctx bounds the miss fetch;
// concurrent identical misses coalesce into one backend call, governed by
// the first caller's context.
//
// When the miss fetch fails and StaleServe is on, Retrieve degrades
// instead of erroring: the cached objects are returned with Stale set so
// the caller can tell the subscriber (and its ack bookkeeping) that older
// objects may follow once the cluster recovers.
func (m *Manager) Retrieve(ctx context.Context, id, k string, from, to, now time.Duration) ([]*Object, RetrievalInfo, error) {
	if to <= from {
		return nil, RetrievalInfo{}, nil
	}
	m.mu.Lock()
	c := m.caches[id]
	if m.isNC() || c == nil {
		m.mu.Unlock()
		// Nothing cached: there is no stale copy to degrade to, so a
		// fetch failure propagates even under StaleServe.
		objs, err := m.fetchMissed(ctx, id, from, to, true)
		return objs, RetrievalInfo{FetchErr: err}, err
	}

	c.lastAccess = now
	// The coverage mark splits the request: objects at or below it may
	// have been evicted/expired and must be fetched from the data
	// cluster; everything above it that still matters is in the cache.
	mark := c.completeSince
	var cached []*Object
	var missFrom, missTo time.Duration
	var haveMiss bool
	switch {
	case from >= mark:
		// All requested objects are in the cache (Algorithm 1's
		// fully-cached case).
		cached = c.objectsInRange(from, to)
	case to > mark:
		// Some are in the cache and some are not: fetch (from, mark]
		// and serve (mark, to] from the cache.
		haveMiss = true
		missFrom, missTo = from, mark
		cached = c.objectsInRange(mark, to)
	default:
		// All are missed.
		haveMiss = true
		missFrom, missTo = from, to
	}

	// Deliver cached objects: mark retrieved by k, consume drained ones.
	var consumed []*Object
	for _, o := range cached {
		if _, ok := o.subs[k]; ok {
			delete(o.subs, k)
			if len(o.subs) == 0 {
				consumed = append(consumed, o)
			}
		}
	}
	for _, o := range consumed {
		m.dropObject(c, o, now, dropConsumed)
	}
	m.touch(c, now)
	m.recordSize(now)
	m.mu.Unlock()
	if m.stats != nil {
		m.stats.Requests.Add(float64(len(cached)))
		m.stats.Hits.Add(float64(len(cached)))
		for _, o := range cached {
			m.stats.HitBytes.Add(float64(o.Size))
		}
	}

	if !haveMiss {
		return cached, RetrievalInfo{}, nil
	}
	missed, err := m.fetchMissed(ctx, id, missFrom, missTo, true)
	if err != nil {
		if m.staleServe {
			if m.stats != nil {
				m.stats.StaleServed.Add(1)
			}
			return cached, RetrievalInfo{Stale: true, FetchErr: err}, nil
		}
		return cached, RetrievalInfo{FetchErr: err}, err
	}
	// Missed objects are older than every cached one.
	return append(missed, cached...), RetrievalInfo{}, nil
}

// Peek reads the cached objects for id in the interval (from, to] — or
// (from, to) when inclusiveTo is false — WITHOUT consuming them: no
// retrieved-by marking, no lastAccess touch, no policy side effects and no
// miss fetch. It exists for the fabric's peer-lookup path: a broker
// answering a sibling's miss for a key it owns must not disturb its own
// subscriber accounting, and must never trigger a chained fetch (loops are
// structurally impossible when peers can only serve what they hold).
// complete reports whether the cache's coverage mark guarantees the range
// has no evicted/expired holes; callers must ignore the objects when it is
// false.
func (m *Manager) Peek(id string, from, to time.Duration, inclusiveTo bool) ([]*Object, bool) {
	if to <= from || m.isNC() {
		return nil, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.caches[id]
	if c == nil {
		return nil, false
	}
	objs := c.objectsInRange(from, to)
	if !inclusiveTo && len(objs) > 0 && objs[len(objs)-1].Timestamp == to {
		objs = objs[:len(objs)-1]
	}
	return objs, c.completeSince <= from
}

// fetchMissed retrieves evicted/expired objects from the data cluster and
// records miss accounting. It must be called WITHOUT m.mu held
// (the fetch may be a network call). Concurrent calls for the same
// (id, range) coalesce into one Fetcher.Fetch: every caller still counts
// its own requests and miss bytes (each caller genuinely missed), but
// fetch bytes are recorded once, by the call that executed the fetch —
// matching the bytes actually pulled from the cluster.
func (m *Manager) fetchMissed(ctx context.Context, id string, from, to time.Duration, inclusiveTo bool) ([]*Object, error) {
	if m.fetcher == nil {
		return nil, ErrNoFetcher
	}
	missed, leader, shared, err := m.flights.do(flightKey(id, from, to, inclusiveTo), func() ([]*Object, error) {
		return m.fetcher.Fetch(ctx, id, from, to, inclusiveTo)
	})
	if err != nil {
		if m.stats != nil {
			m.stats.FetchErrors.Add(1)
		}
		return nil, fmt.Errorf("core: fetch from data cluster: %w", err)
	}
	if shared {
		// Callers append cached objects onto the returned slice; give each
		// coalesced caller its own backing array.
		missed = append([]*Object(nil), missed...)
	}
	if m.stats != nil {
		m.stats.Requests.Add(float64(len(missed)))
		for _, o := range missed {
			m.stats.MissBytes.Add(float64(o.Size))
			// Peer-served objects never crossed the broker-cluster link:
			// they count as misses (the local cache didn't have them) but
			// not as cluster fetch bytes. The fabric layer tallies them
			// under the peer-hit counters instead.
			if leader && !o.Peer {
				m.stats.FetchBytes.Add(float64(o.Size))
			}
		}
	}
	return missed, nil
}

// RecomputeTTLs recomputes every cache's TTL from the current rate
// estimates per eq. (7): T_i = w_i*B / sum_k(w_k*rho_k), clamped to
// [MinTTL, MaxTTL]. It returns the new TTLs keyed by cache ID. Under
// non-TTL-stamping policies the assigned TTLs are hypothetical — objects
// are neither stamped nor expired — which is exactly what the Fig. 5(b)
// holding-time-vs-TTL comparison needs for the eviction policies.
func (m *Manager) RecomputeTTLs(now time.Duration) map[string]time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	type rated struct {
		c      *ResultCache
		rho, w float64
	}
	rates := make([]rated, 0, len(m.caches))
	var denom float64
	for _, c := range m.caches {
		r := rated{c: c, rho: c.GrowthRate(now), w: 1}
		if m.ttlCfg.Weighting != WeightUniform {
			r.w = float64(len(c.subs))
		}
		rates = append(rates, r)
		denom += r.w * r.rho
	}
	out := make(map[string]time.Duration, len(rates))
	var rhoTTL float64
	for _, r := range rates {
		ttl := m.ttlCfg.DefaultTTL
		if denom > 0 {
			ttl = time.Duration(r.w * float64(m.budget) / denom * float64(time.Second))
		}
		ttl = min(max(ttl, m.ttlCfg.MinTTL), m.ttlCfg.MaxTTL)
		r.c.ttl = ttl
		out[r.c.id] = ttl
		rhoTTL += r.rho * ttl.Seconds()
	}
	m.rhoTTL.Observe(rhoTTL)
	return out
}

// ExpireDue drops every tail object whose TTL deadline has passed (TTL
// policy only) and returns how many objects were dropped. The simulator
// calls it from scheduled expiry events; the live broker calls it from a
// ticker.
func (m *Manager) ExpireDue(now time.Duration) int {
	if !m.policy.AutoExpire() {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	dropped := 0
	for {
		c, deadline, ok := m.expiry.peekFresh()
		if !ok || time.Duration(deadline) > now {
			break
		}
		// Drop expired tails of this cache.
		for c.tail != nil && c.tail.expiresAt <= now {
			m.dropObject(c, c.tail, now, dropExpired)
			dropped++
		}
		m.touch(c, now)
	}
	m.recordSize(now)
	return dropped
}

// NextExpiry returns the earliest TTL deadline among cache tails and true,
// or false when nothing is scheduled to expire. Only meaningful under the
// TTL policy.
func (m *Manager) NextExpiry() (time.Duration, bool) {
	if !m.policy.AutoExpire() {
		return 0, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	_, deadline, ok := m.expiry.peekFresh()
	return time.Duration(deadline), ok
}

// CacheInfo is a point-in-time summary of one result cache, used by the
// Fig. 5(b) holding-time-vs-TTL analysis and by operational endpoints.
type CacheInfo struct {
	ID          string        `json:"id"`
	Objects     int           `json:"objects"`
	Bytes       int64         `json:"bytes"`
	Subscribers int           `json:"subscribers"`
	TTL         time.Duration `json:"ttl"`
	LastAccess  time.Duration `json:"last_access"`
	// HoldingMean is the mean holding time (seconds) of objects dropped
	// from this cache; HoldingN is the sample count.
	HoldingMean float64 `json:"holding_mean_s"`
	HoldingN    int64   `json:"holding_n"`
	// TTLStampedMean is the mean TTL (seconds) stamped onto this cache's
	// objects over the run (0 under non-stamping policies).
	TTLStampedMean float64 `json:"ttl_stamped_mean_s"`
}

// CacheInfos returns a summary of every cache, sorted by ID.
func (m *Manager) CacheInfos() []CacheInfo {
	var out []CacheInfo
	m.mu.Lock()
	for _, c := range m.caches {
		out = append(out, CacheInfo{
			ID:             c.id,
			Objects:        c.n,
			Bytes:          c.size,
			Subscribers:    len(c.subs),
			TTL:            c.ttl,
			LastAccess:     c.lastAccess,
			HoldingMean:    c.holding.Mean(),
			HoldingN:       c.holding.N(),
			TTLStampedMean: c.ttlStamped.Mean(),
		})
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
