package broker

import (
	"context"
	"strconv"
	"sync"
	"time"

	"gobad/internal/bcs"
	"gobad/internal/bdms"
	"gobad/internal/core"
	"gobad/internal/obs"
	"gobad/internal/obs/span"
)

// The cooperative edge fabric (paper §VI's broker *network*): brokers
// share one HRW ring published by the BCS, a subscriber's session lives on
// its HRW owner, and each (channel, params) cache has an HRW owner too —
// so a local miss consults the owning sibling before paying a cluster
// fetch. The lookup rides inside the core manager's singleflight, so a
// fabric-wide stampede on one range still collapses to one fetch per
// broker, and the peer handler serves strictly from its local cache
// (Manager.Peek), which makes lookup chains structurally impossible.

// FabricConfig connects a broker to the cooperative fabric.
type FabricConfig struct {
	// BCS refreshes the membership ring (FabricTick). Optional: tests
	// and embedded setups can install views directly with SetRing.
	BCS *bcs.Client
	// Peers performs broker-to-broker lookups; nil disables the peer
	// tier (the fabric then only does placement/rebalance).
	Peers *bdms.PeerClient
}

const (
	// fabricMemoTTL bounds how long a peer answer is reused for an
	// identical range before the sibling is asked again — the "populate
	// the local cache with a short TTL" rule, kept outside the result
	// cache so the paper's no-re-cache invariant for missed objects stays
	// intact.
	fabricMemoTTL = 2 * time.Second
	// fabricMemoCap bounds the peer-answer memo; at the cap, expired
	// entries are collected and, failing that, an arbitrary entry is
	// evicted.
	fabricMemoCap = 1024
)

type memoEntry struct {
	objs    []*core.Object
	expires time.Duration
}

// fabric is the broker's runtime fabric state: the current ring view, the
// short-TTL peer-answer memo and the per-peer latency histograms.
type fabric struct {
	b   *Broker
	cfg FabricConfig

	mu   sync.Mutex
	ring bcs.RingView
	memo map[string]memoEntry
	// peers holds peerLat's children by owning broker ID, at most
	// fabricPeerCap of them plus the overflow child.
	peers map[string]*obs.Histogram
	// peerLat is the per-peer lookup latency in seconds; the broker server
	// registers it.
	peerLat *obs.HistogramVec
}

func newFabric(b *Broker, cfg FabricConfig) *fabric {
	return &fabric{
		b:     b,
		cfg:   cfg,
		memo:  make(map[string]memoEntry),
		peers: make(map[string]*obs.Histogram),
		peerLat: obs.NewHistogramVec("bad_peer_lookup_seconds",
			"Broker-to-broker peer lookup latency, labeled by owning peer.",
			span.DeliveryBuckets, "peer"),
	}
}

// fabricEnabled reports whether the broker participates in the fabric.
func (b *Broker) fabricEnabled() bool { return b.fabric != nil }

// SetRing installs a membership view (monotonic by epoch: stale views are
// ignored) and reports whether the view changed. Production brokers get
// views via FabricTick; tests and embedded fabrics install them directly.
func (b *Broker) SetRing(view bcs.RingView) bool {
	f := b.fabric
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if view.Epoch <= f.ring.Epoch && f.ring.Epoch != 0 {
		return false
	}
	changed := view.Epoch != f.ring.Epoch
	f.ring = view
	return changed
}

// Ring returns the broker's current membership view (zero when none was
// installed yet).
func (b *Broker) Ring() bcs.RingView {
	f := b.fabric
	if f == nil {
		return bcs.RingView{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ring
}

// FabricTick refreshes the ring from the BCS (conditionally — an
// unchanged ring costs a 304) and, when membership changed, migrates the
// sessions HRW placement moved to another broker. Call it from a ticker.
func (b *Broker) FabricTick(ctx context.Context) (changed bool, migrated int, err error) {
	f := b.fabric
	if f == nil || f.cfg.BCS == nil {
		return false, 0, nil
	}
	// The tick is its own trace (joined to the caller's when it has one):
	// the conditional ring fetch below carries its traceparent to the BCS,
	// so a membership change is attributable across both processes.
	ctx, sp := b.traces.Start(ctx, "fabric.tick")
	defer func() { sp.SetError(err); sp.End() }()
	f.mu.Lock()
	prev := f.ring.Epoch
	f.mu.Unlock()
	view, fetched, err := f.cfg.BCS.RingIfChanged(ctx, prev)
	if err != nil || !fetched {
		return false, 0, err
	}
	if !b.SetRing(view) {
		return false, 0, nil
	}
	return true, b.Rebalance(ctx), nil
}

// Rebalance migrates every connected session whose HRW owner under the
// current ring is another live broker: pending push markers are flushed
// (bounded by ctx) and the socket is closed with a migrate frame naming
// the new owner, which the client supervisor follows without consulting
// the BCS. Sessions the ring still places here are untouched, so a
// rebalance disturbs at most ~K/n sessions per membership change.
func (b *Broker) Rebalance(ctx context.Context) int {
	f := b.fabric
	if f == nil || b.draining.Load() {
		return 0
	}
	ring := b.Ring()
	if len(ring.Brokers) == 0 || !ring.Has(b.id) {
		// An empty ring means no live sibling to point at; a ring that
		// no longer contains this broker means it is being removed, and
		// the drain path owns that migration.
		return 0
	}
	n := b.sessions.rebalance(ctx, func(subscriber string) (string, bool) {
		owner, ok := ring.Owner(subscriber)
		if !ok || owner.ID == b.id {
			return "", false
		}
		return owner.Address, true
	})
	if n > 0 {
		b.failover.RebalanceMigrated.Add(uint64(n))
	}
	return n
}

// FabricKey returns the fabric-wide identity of a (channel, params)
// subscription: a short hash every broker derives identically, regardless
// of its broker-local backend-subscription ID — peers address each other's
// caches with it.
func FabricKey(channel string, params []any) string {
	return fabricHash(subKey(channel, params))
}

func fabricHash(s string) string {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return "fk" + strconv.FormatUint(h, 16)
}

// lookup is the peer tier of the miss path: on a local cache miss for
// cacheID over (from, to], ask the HRW owner of the subscription's fabric
// key for its cached copy. It returns ok=false whenever the fabric cannot
// fully serve the range — not configured, we are the owner, the owner is
// cold/draining/dead, or the answer was partial — in which case the caller
// falls through to the cluster. It runs inside the manager's singleflight,
// so concurrent identical misses cost one lookup.
func (f *fabric) lookup(ctx context.Context, cacheID string, from, to time.Duration, inclusiveTo bool) ([]*core.Object, bool) {
	if f.cfg.Peers == nil {
		return nil, false
	}
	f.b.mu.Lock()
	bs := f.b.backendByID[cacheID]
	var fkey string
	if bs != nil {
		fkey = bs.fkey
	}
	f.b.mu.Unlock()
	if bs == nil {
		return nil, false
	}
	f.mu.Lock()
	ring := f.ring
	f.mu.Unlock()
	owner, ok := ring.Owner(fkey)
	if !ok || owner.ID == f.b.id {
		return nil, false
	}

	memoKey := fkey + "|" + from.String() + "|" + to.String() + "|" + strconv.FormatBool(inclusiveTo)
	now := f.b.clock()
	f.mu.Lock()
	if e, hit := f.memo[memoKey]; hit && now < e.expires {
		f.mu.Unlock()
		return append([]*core.Object(nil), e.objs...), true
	}
	f.mu.Unlock()

	// The peer hop is one span in the delivery trace; DoJSONHeader forwards
	// its traceparent, so the owning sibling's server span joins the same
	// trace.
	lctx, sp := f.b.traces.Start(ctx, "fabric.peer_lookup")
	sp.SetAttr("peer", owner.ID)
	sp.SetAttr("fabric_key", fkey)
	start := time.Now()
	resp, err := f.cfg.Peers.Results(lctx, owner.Address, fkey,
		from.Nanoseconds(), to.Nanoseconds(), inclusiveTo)
	d := time.Since(start)
	f.observePeer(owner.ID, d)
	sp.SetError(err)
	sp.End()
	f.b.stages.Observe(lctx, span.StagePeerLookup, span.OutcomeNone, d)
	if err != nil || !resp.Complete {
		f.b.stats.PeerMisses.Add(1)
		return nil, false
	}
	objs := make([]*core.Object, len(resp.Results))
	for i, r := range resp.Results {
		objs[i] = f.b.object(r)
		objs[i].Peer = true
	}
	f.b.stats.PeerHits.Add(1)
	f.memoize(memoKey, objs, now)
	return objs, true
}

// memoize stores a peer answer for fabricMemoTTL, bounding the table size.
func (f *fabric) memoize(key string, objs []*core.Object, now time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.memo) >= fabricMemoCap {
		for k, e := range f.memo {
			if now >= e.expires {
				delete(f.memo, k)
			}
		}
		for k := range f.memo {
			if len(f.memo) < fabricMemoCap {
				break
			}
			delete(f.memo, k)
		}
	}
	f.memo[key] = memoEntry{objs: objs, expires: now + fabricMemoTTL}
}

// fabricPeerCap bounds how many distinct peer IDs get their own latency
// series; lookups against further peers share the overflow bucket, so the
// bad_peer_lookup_seconds label set cannot grow with fabric churn.
const fabricPeerCap = 16

// peerOverflowLabel is the shared label value for peers beyond the cap.
const peerOverflowLabel = "_other"

func (f *fabric) observePeer(peerID string, d time.Duration) {
	f.mu.Lock()
	h := f.peers[peerID]
	if h == nil {
		if len(f.peers) >= fabricPeerCap {
			peerID = peerOverflowLabel
		}
		if h = f.peers[peerID]; h == nil {
			h = f.peerLat.With(peerID)
			f.peers[peerID] = h
		}
	}
	f.mu.Unlock()
	h.Observe(d.Seconds())
}

// PeerResults serves a sibling's lookup for fabric key fk strictly from
// the local result cache (Manager.Peek — no consumption, no fetch, no
// policy side effects). ok=false means this broker cannot fully vouch for
// the range: it has no live subscription under fk, its cache has holes
// there, or its backend marker has not reached to yet.
func (b *Broker) PeerResults(fk string, from, to time.Duration, inclusiveTo bool) (bdms.PeerResultsResponse, bool) {
	b.mu.Lock()
	bs := b.byFabric[fk]
	var id string
	var bts time.Duration
	if bs != nil {
		id, bts = bs.id, bs.bts
	}
	b.mu.Unlock()
	if bs == nil {
		return bdms.PeerResultsResponse{}, false
	}
	// The cache being hole-free above from is not enough: the owner must
	// also have pulled results through to, or the newest objects of the
	// range may simply not have arrived here yet.
	if bts < to {
		return bdms.PeerResultsResponse{LatestNS: int64(bts)}, false
	}
	objs, complete := b.manager.Peek(id, from, to, inclusiveTo)
	if !complete {
		return bdms.PeerResultsResponse{LatestNS: int64(bts)}, false
	}
	results := make([]bdms.ResultObject, 0, len(objs))
	for _, o := range objs {
		results = append(results, bdms.ResultObject{
			ID: o.ID, SubscriptionID: id, Timestamp: o.Timestamp,
			Rows: o.Payload, Size: o.Size,
		})
	}
	return bdms.PeerResultsResponse{Results: results, LatestNS: int64(bts), Complete: true}, true
}
