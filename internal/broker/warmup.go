package broker

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"gobad/internal/bdms"
	"gobad/internal/core"
	"gobad/internal/obs"
)

// Warm cache handoff: a draining broker serializes its cache manager's
// warm entries and ships them to its HRW successor (and to a local
// snapshot file), so a restarted or successor broker does not start
// ice-cold and stampede the cluster with backfill fetches. Entries are
// keyed by the fabric key — the portable cache identity — because backend
// subscription IDs and cache IDs are broker-local.
//
// Intake is two-tier: entries whose (channel, params) already have a live
// backend subscription are applied straight into the cache; the rest are
// stashed (bounded, staleness-filtered) and consumed when a matching
// subscribe arrives. Consumption advances the backend timestamp marker,
// so the resume backfill that follows fetches only what was produced
// AFTER the handoff — usually nothing.

// WarmupStats counts warm-handoff activity.
type WarmupStats struct {
	// Hits counts fresh backend subscriptions seeded from warm state.
	Hits obs.Counter
	// Misses counts fresh backend subscriptions that started cold.
	Misses obs.Counter
	// ObjectsLoaded counts cache objects restored from warm entries.
	ObjectsLoaded obs.Counter
	// EntriesApplied counts snapshot entries applied onto live
	// subscriptions at intake time.
	EntriesApplied obs.Counter
	// EntriesStashed counts snapshot entries parked for future subscribes.
	EntriesStashed obs.Counter
	// EntriesDropped counts snapshot entries rejected (stale snapshot or
	// stash budget exhausted).
	EntriesDropped obs.Counter
	// SnapshotsTaken counts SnapshotCache calls (drain handoffs).
	SnapshotsTaken obs.Counter
}

// Warm-handoff limits.
const (
	// DefaultWarmupMaxBytes bounds the payload volume of the warm cache
	// snapshot shipped on drain and of the intake stash of
	// not-yet-consumed warm entries.
	DefaultWarmupMaxBytes = 32 << 20
	// warmupMaxAge is how stale a snapshot may be before intake rejects
	// it — warm state older than this would poison resume markers with a
	// horizon the cluster has long moved past.
	warmupMaxAge = 5 * time.Minute
)

// warmEntry is one stashed snapshot entry awaiting a matching subscribe.
type warmEntry struct {
	e     bdms.CacheWarmEntry
	bytes int64
}

// warmStore is the bounded stash of not-yet-consumed warm entries.
type warmStore struct {
	mu       sync.Mutex
	entries  map[string]*warmEntry // by fabric key
	bytes    int64
	maxBytes int64
}

func newWarmStore() *warmStore {
	return &warmStore{entries: make(map[string]*warmEntry), maxBytes: DefaultWarmupMaxBytes}
}

// put stashes an entry, reporting false when the budget is exhausted.
func (w *warmStore) put(e bdms.CacheWarmEntry) bool {
	n := warmEntryBytes(e)
	w.mu.Lock()
	defer w.mu.Unlock()
	if old, ok := w.entries[e.FabricKey]; ok {
		w.bytes -= old.bytes
		delete(w.entries, e.FabricKey)
	}
	if w.bytes+n > w.maxBytes {
		return false
	}
	w.entries[e.FabricKey] = &warmEntry{e: e, bytes: n}
	w.bytes += n
	return true
}

// take removes and returns the entry for a fabric key.
func (w *warmStore) take(fkey string) (bdms.CacheWarmEntry, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	ent, ok := w.entries[fkey]
	if !ok {
		return bdms.CacheWarmEntry{}, false
	}
	delete(w.entries, fkey)
	w.bytes -= ent.bytes
	return ent.e, true
}

// size returns the stashed entry count.
func (w *warmStore) size() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.entries)
}

func warmEntryBytes(e bdms.CacheWarmEntry) int64 {
	n := int64(len(e.FabricKey) + len(e.Channel) + 64)
	for _, o := range e.Objects {
		n += o.Size + int64(len(o.ID)) + 32
	}
	return n
}

// WarmupStats exposes the broker's warm-handoff counters.
func (b *Broker) WarmupStats() *WarmupStats { return &b.warmupStats }

// WarmStashSize returns how many warm entries await a matching subscribe.
func (b *Broker) WarmStashSize() int { return b.warm.size() }

// SetWarming flips the /v1/healthz readiness state: a warming broker is
// up but still restoring warm state, and BCS placement excludes it until
// it reports ready.
func (b *Broker) SetWarming(v bool) { b.warming.Store(v) }

// Warming reports whether the broker is still restoring warm state.
func (b *Broker) Warming() bool { return b.warming.Load() }

// SnapshotCache serializes the warm entries of every backend
// subscription's result cache, hottest (most attached subscribers) first,
// bounded by the configured byte budget. Called on graceful drain; the
// result is shipped to the HRW successor and written beside the broker
// for its own restart.
func (b *Broker) SnapshotCache() bdms.CacheSnapshot {
	b.warmupStats.SnapshotsTaken.Inc()
	type cand struct {
		bs   *backendSub
		refs int
		bts  time.Duration
	}
	b.mu.Lock()
	cands := make([]cand, 0, len(b.backendSubs))
	for _, bs := range b.backendSubs {
		cands = append(cands, cand{bs: bs, refs: bs.refs, bts: bs.bts})
	}
	b.mu.Unlock()
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].refs != cands[j].refs {
			return cands[i].refs > cands[j].refs
		}
		return cands[i].bs.fkey < cands[j].bs.fkey
	})

	snap := bdms.CacheSnapshot{
		Version:     bdms.CacheSnapshotVersion,
		Broker:      b.id,
		TakenUnixNS: time.Now().UnixNano(),
	}
	var budget int64
	for _, c := range cands {
		if c.bts <= 0 {
			continue
		}
		objs, _ := b.manager.Peek(c.bs.id, 0, c.bts, true)
		entry := bdms.CacheWarmEntry{
			FabricKey: c.bs.fkey, Channel: c.bs.channel,
			Params: c.bs.params, BTSNS: int64(c.bts),
			Objects: resultObjects(c.bs.id, objs),
		}
		budget += warmEntryBytes(entry)
		if budget > b.warm.maxBytes {
			break
		}
		// Even an object-less entry is worth shipping: its BTS marker
		// spares the successor the backfill range fetch.
		snap.Entries = append(snap.Entries, entry)
	}
	return snap
}

// InstallWarmup ingests a warm cache snapshot (peer handoff or local
// restore). Stale snapshots are rejected wholesale; fresh entries are
// applied onto live backend subscriptions immediately and stashed for
// future subscribes otherwise.
func (b *Broker) InstallWarmup(ctx context.Context, snap bdms.CacheSnapshot) bdms.WarmupResponse {
	var resp bdms.WarmupResponse
	ctx, sp := b.traces.Start(ctx, "broker.warmup")
	defer sp.End()
	if snap.Version != bdms.CacheSnapshotVersion {
		resp.Dropped = len(snap.Entries)
		b.warmupStats.EntriesDropped.Add(float64(resp.Dropped))
		sp.SetError(fmt.Errorf("broker: unsupported cache snapshot version %d", snap.Version))
		return resp
	}
	if age := time.Since(time.Unix(0, snap.TakenUnixNS)); age > warmupMaxAge {
		resp.Dropped = len(snap.Entries)
		b.warmupStats.EntriesDropped.Add(float64(resp.Dropped))
		b.log.WarnContext(ctx, "rejecting stale warm snapshot",
			slog.String("from", snap.Broker), slog.Duration("age", age))
		sp.SetAttr("stale", "true")
		return resp
	}
	for _, e := range snap.Entries {
		b.mu.Lock()
		bs := b.byFabric[e.FabricKey]
		b.mu.Unlock()
		if bs != nil {
			b.applyWarmEntry(ctx, bs, e)
			resp.Applied++
			b.warmupStats.EntriesApplied.Inc()
			continue
		}
		if b.warm.put(e) {
			resp.Stashed++
			b.warmupStats.EntriesStashed.Inc()
		} else {
			resp.Dropped++
			b.warmupStats.EntriesDropped.Inc()
		}
	}
	sp.SetAttr("applied", fmt.Sprintf("%d", resp.Applied))
	sp.SetAttr("stashed", fmt.Sprintf("%d", resp.Stashed))
	sp.SetAttr("dropped", fmt.Sprintf("%d", resp.Dropped))
	return resp
}

// consumeWarm seeds a freshly created backend subscription from the warm
// stash (if a handoff left matching state) and tallies the hit/miss.
// Called once per backend-subscription creation.
func (b *Broker) consumeWarm(ctx context.Context, bs *backendSub) {
	e, ok := b.warm.take(bs.fkey)
	if !ok {
		b.warmupStats.Misses.Inc()
		return
	}
	ctx, sp := b.traces.Start(ctx, "broker.warmup")
	sp.SetAttr("fabric_key", bs.fkey)
	n := b.applyWarmEntry(ctx, bs, e)
	sp.SetAttr("objects", fmt.Sprintf("%d", n))
	sp.End()
	b.warmupStats.Hits.Inc()
}

// applyWarmEntry loads one warm entry into a subscription's result cache
// and advances the backend timestamp marker to the predecessor's
// high-water mark, so the subsequent backfill fetches only results produced
// after the handoff. Returns the objects loaded.
func (b *Broker) applyWarmEntry(ctx context.Context, bs *backendSub, e bdms.CacheWarmEntry) int {
	held := make([]*core.Object, len(e.Objects))
	for i, o := range e.Objects {
		held[i] = b.object(o)
	}
	_, loaded, err := b.advance(ctx, bs, time.Duration(e.BTSNS), held, 0, true)
	if err != nil {
		b.log.WarnContext(ctx, "warmup install failed",
			slog.String("backend_sub", bs.id), slog.Any("error", err))
	}
	b.warmupStats.ObjectsLoaded.Add(float64(loaded))
	return loaded
}
