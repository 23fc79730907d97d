// Package broker implements the BAD broker node: the edge component that
// connects end subscribers to the data cluster. It has two halves, exactly
// as Section III describes — a client-facing part (REST + WebSocket push,
// server.go) that manages BAD clients, their frontend subscriptions and
// notification delivery, and a backend-facing part that subscribes to the
// data cluster on the clients' behalf, registers a webhook callback and
// pulls new channel results when notified.
//
// The broker suppresses duplicate subscriptions: frontend subscriptions
// with the same (channel, parameters) share one backend subscription, and
// its results are cached once in an in-memory result cache (internal/core)
// and shared by all attached subscribers.
package broker

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gobad/internal/bdms"
	"gobad/internal/core"
	"gobad/internal/metrics"
	"gobad/internal/obs"
	"gobad/internal/obs/span"
	"gobad/internal/wsock"
)

// Backend is the data cluster abstraction the broker consumes (Section
// III-A). *bdms.Cluster satisfies it directly (in-process deployments) and
// *bdms.Client satisfies it over REST. Result pulls take the context of the
// request they serve — a webhook callback, a resume, a subscriber's
// retrieval — so its deadline, cancellation and trace reach the cluster.
type Backend interface {
	Subscribe(channel string, params []any, callback string) (string, error)
	Unsubscribe(subID string) error
	ResultsContext(ctx context.Context, subID string, from, to time.Duration, inclusiveTo bool) ([]bdms.ResultObject, error)
	// ResultsBatchContext is ResultsContext over at most
	// bdms.MaxResultRanges ranges in one call, answered in order.
	ResultsBatchContext(ctx context.Context, ranges []bdms.ResultRange) ([]bdms.RangeResults, error)
	LatestTimestamp(subID string) (time.Duration, error)
}

// Interface compliance.
var (
	_ Backend = (*bdms.Cluster)(nil)
	_ Backend = (*bdms.Client)(nil)
)

// Config configures a Broker.
type Config struct {
	// ID is the broker's identifier (required).
	ID string
	// Backend is the data cluster connection (required).
	Backend Backend
	// CallbackURL is the webhook URL the data cluster should invoke for
	// new results; it must route to this broker's HTTP handler at
	// /v1/callbacks/results. Leave empty for in-process backends driven
	// by a direct Notifier.
	CallbackURL string
	// Policy is the caching policy (required), e.g. core.LSC{}.
	Policy core.Policy
	// CacheBudget is the allowed total cache size B in bytes.
	CacheBudget int64
	// TTL tunes TTL-based policies.
	TTL core.TTLConfig
	// BackendRTT and BackendBandwidth estimate the cost of fetching an
	// object from the data cluster; they parameterize the per-object
	// fetch latency l_ij used by the LSD policy. Defaults: 500ms and
	// 10 MB/s (Table II).
	BackendRTT       time.Duration
	BackendBandwidth float64 // bytes per second
	// Clock overrides the broker-local clock (tests/simulation); the
	// default is wall time since construction.
	Clock func() time.Duration
	// Logger receives the broker's structured log lines (slow-fetch
	// warnings, backend errors). Lines carry trace/request IDs when the
	// triggering context has them. nil discards.
	Logger *slog.Logger
	// StaleServe degrades gracefully when the data cluster is
	// unreachable: a retrieval whose backend fetch fails is answered
	// from the cache alone and marked stale instead of erroring. The
	// returned marker stays 0, so the subscriber cannot ack past the
	// missed range — the older objects are re-delivered once the
	// cluster recovers (at-least-once, possible duplicates).
	StaleServe bool
	// Fabric connects the broker to the cooperative edge fabric: HRW
	// placement, session rebalance and broker-to-broker peer lookup on
	// cache misses. nil runs the broker standalone.
	Fabric *FabricConfig
}

// Broker is a BAD broker node.
type Broker struct {
	id          string
	backend     Backend
	callbackURL string
	manager     *core.Manager
	stats       *metrics.CacheStats
	clock       func() time.Duration
	log         *slog.Logger
	// slowFetch is the wall-clock duration above which a data cluster pull
	// is logged as slow.
	slowFetch time.Duration

	rtt time.Duration
	bw  float64

	mu sync.Mutex
	// backendSubs deduplicates by subscription key.
	backendSubs map[string]*backendSub // key -> sub
	backendByID map[string]*backendSub // backend subscription id -> sub
	// byFabric indexes live backend subscriptions by their fabric-wide
	// key (FabricKey), the identity peer brokers address caches with.
	byFabric map[string]*backendSub
	frontend map[string]*frontendSub
	// subIndex maps subscriber -> backend subscription id -> frontend
	// subscription id: the subscriber's interest set, read once when its
	// WebSocket attaches so the session hub can index the session under
	// each backend-subscription key.
	subIndex map[string]map[string]string
	fsSeq    uint64

	sessions *sessionHub
	// push overrides notification delivery (experiments); nil means
	// WebSocket sessions.
	push func(subscriber string, n PushNotification) bool

	// failover tallies resume/backfill/drain activity.
	failover *obs.FailoverStats
	// draining is set once Drain starts: new subscriptions and WebSocket
	// attaches are refused so clients fail over to another broker.
	draining atomic.Bool

	// fabric is the cooperative-edge state (ring view, peer lookup memo);
	// nil outside a fabric (single-broker mode).
	fabric *fabric

	// subFlights singleflights backend-subscription creation per key: K
	// concurrent resumes of the same (channel, params) yield one cluster
	// subscribe, the rest wait and share it.
	subFlights map[string]*subFlight
	// warm is the bounded stash of handed-off cache entries awaiting a
	// matching subscribe; warmupStats tallies hits/misses/intake.
	warm        *warmStore
	warmupStats WarmupStats
	// warming is the cold-start readiness state: true while the broker is
	// still restoring warm state, reported on /v1/healthz and excluded
	// from BCS placement.
	warming atomic.Bool

	// traces/stages are the delivery-tracing hooks (nil-safe; set once
	// via SetTracing before traffic flows).
	traces *span.Recorder
	stages *span.Stages
}

// SetTracing wires the broker's span recorder and per-stage delivery
// histogram (both may be nil). NewServer calls it with the observer's
// recorder; call it before traffic flows.
func (b *Broker) SetTracing(traces *span.Recorder, stages *span.Stages) {
	b.traces = traces
	b.stages = stages
	b.sessions.traces = traces
	b.sessions.stages = stages
}

// backendSub is one deduplicated subscription at the data cluster with its
// result cache marker.
type backendSub struct {
	key string
	id  string // data cluster subscription id
	// fkey is the fabric-wide cache identity (FabricKey over channel and
	// params), shared by every broker subscribed to the same channel.
	fkey    string
	channel string
	params  []any
	// bts is the newest result timestamp already pulled into the cache.
	bts time.Duration
	// refs counts attached frontend subscriptions.
	refs int
	// attached maps subscriber -> its frontend subscription id, used for
	// notification fan-out and per-subscriber dedup.
	attached map[string]string
	// pullMu serializes webhook-triggered pulls for this subscription so
	// concurrent notifications cannot interleave out-of-order Puts.
	pullMu sync.Mutex
}

// subFlight is one in-progress backend-subscription creation; waiters
// block on done and re-read the map once the leader finishes.
type subFlight struct {
	done chan struct{}
}

// frontendSub is one subscriber's subscription through this broker.
type frontendSub struct {
	id         string
	subscriber string
	bs         *backendSub
	// fts is the newest result timestamp the subscriber has acknowledged.
	fts time.Duration
}

// New validates cfg and returns a ready Broker.
func New(cfg Config) (*Broker, error) {
	if cfg.ID == "" {
		return nil, errors.New("broker: Config.ID is required")
	}
	if cfg.Backend == nil {
		return nil, errors.New("broker: Config.Backend is required")
	}
	if cfg.Policy == nil {
		return nil, errors.New("broker: Config.Policy is required")
	}
	if cfg.BackendRTT <= 0 {
		cfg.BackendRTT = 500 * time.Millisecond
	}
	if cfg.BackendBandwidth <= 0 {
		cfg.BackendBandwidth = 10 << 20
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	b := &Broker{
		id:          cfg.ID,
		backend:     cfg.Backend,
		callbackURL: cfg.CallbackURL,
		stats:       &metrics.CacheStats{},
		rtt:         cfg.BackendRTT,
		bw:          cfg.BackendBandwidth,
		backendSubs: make(map[string]*backendSub),
		backendByID: make(map[string]*backendSub),
		byFabric:    make(map[string]*backendSub),
		frontend:    make(map[string]*frontendSub),
		subIndex:    make(map[string]map[string]string),
		log:         obs.WrapLogger(cfg.Logger),
		slowFetch:   time.Second,
		failover:    &obs.FailoverStats{},
		subFlights:  make(map[string]*subFlight),
		warm:        newWarmStore(),
	}
	b.sessions = newSessionHub(DefaultPushQueue, &b.stats.Delivered, b.log)
	if cfg.Fabric != nil {
		b.fabric = newFabric(b, *cfg.Fabric)
	}
	if cfg.Clock != nil {
		b.clock = cfg.Clock
	} else {
		epoch := time.Now()
		b.clock = func() time.Duration { return time.Since(epoch) }
	}
	mgr, err := core.NewManager(core.Config{
		Policy:     cfg.Policy,
		Budget:     cfg.CacheBudget,
		Fetcher:    core.FetcherFunc(b.fetchFromBackend),
		TTL:        cfg.TTL,
		Stats:      b.stats,
		StaleServe: cfg.StaleServe,
	})
	if err != nil {
		return nil, fmt.Errorf("broker: %w", err)
	}
	b.manager = mgr
	return b, nil
}

// ID returns the broker's identifier.
func (b *Broker) ID() string { return b.id }

// Stats returns the broker's cache statistics.
func (b *Broker) Stats() *metrics.CacheStats { return b.stats }

// PushStats snapshots the WebSocket push pipeline's counters.
func (b *Broker) PushStats() PushStats { return b.sessions.snapshot() }

// Failover exposes the broker's failover/drain tallies.
func (b *Broker) Failover() *obs.FailoverStats { return b.failover }

// Draining reports whether a graceful drain has started.
func (b *Broker) Draining() bool { return b.draining.Load() }

// Drain gracefully hands the broker's live sessions over to successor (a
// BCS-assigned broker base URL; may be empty when no peer is live, in which
// case clients fall back to BCS discovery). New subscriptions and WebSocket
// attaches are refused from the first call on; every live session has its
// pending push markers flushed (bounded by ctx) and is then closed with a
// migrate frame naming the successor. It returns the number of migrated
// sessions.
func (b *Broker) Drain(ctx context.Context, successor string) int {
	b.draining.Store(true)
	n := b.sessions.drain(ctx, successor)
	b.failover.DrainMigrated.Add(uint64(n))
	return n
}

// AttachSession registers a subscriber's WebSocket connection with the
// push hub, already indexed under the subscriber's current subscriptions
// (the hub's interest index is what broadcast resolves audiences from):
// session and index entries appear in one step, so the server can answer
// the handshake afterwards and a connected client is owed every later
// publish. Any previous session of the same subscriber is closed. It
// reports false while the broker is draining: the connection is closed
// immediately with a migrate frame naming the successor.
func (b *Broker) AttachSession(subscriber string, conn *wsock.Conn) bool {
	if !b.sessions.attach(subscriber, conn, b.interests(subscriber)) {
		return false
	}
	// A Subscribe that updated subIndex between that snapshot and the
	// attach found no session to register with; one that updates it from
	// here on finds the session and registers itself. Register is
	// idempotent, so indexing the whole second snapshot is harmless.
	for bsID, fsID := range b.interests(subscriber) {
		b.sessions.register(subscriber, bsID, fsID)
	}
	return true
}

// interests snapshots a subscriber's backend sub -> frontend sub index.
func (b *Broker) interests(subscriber string) map[string]string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]string, len(b.subIndex[subscriber]))
	for bsID, fsID := range b.subIndex[subscriber] {
		out[bsID] = fsID
	}
	return out
}

// DetachSession removes the subscriber's session if it still owns conn
// (a newer attach replaces the session; the old reader's detach must not
// tear the new one down).
func (b *Broker) DetachSession(subscriber string, conn *wsock.Conn) {
	b.sessions.detach(subscriber, conn)
}

// Online reports whether the subscriber currently has a live WebSocket
// session on this broker.
func (b *Broker) Online(subscriber string) bool { return b.sessions.online(subscriber) }

// Manager exposes the cache manager (experiments and operational
// endpoints).
func (b *Broker) Manager() *core.Manager { return b.manager }

// Now returns the broker-local time offset.
func (b *Broker) Now() time.Duration { return b.clock() }

// NumSubscribers returns how many distinct subscribers hold frontend
// subscriptions.
func (b *Broker) NumSubscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	seen := map[string]struct{}{}
	for _, fs := range b.frontend {
		seen[fs.subscriber] = struct{}{}
	}
	return len(seen)
}

// NumFrontendSubs and NumBackendSubs report the subscription-suppression
// ratio (the prototype experiment quotes ~3500 frontend vs ~800 backend).
func (b *Broker) NumFrontendSubs() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.frontend)
}

// NumBackendSubs returns the number of deduplicated backend subscriptions.
func (b *Broker) NumBackendSubs() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.backendSubs)
}

// subKey canonicalizes (channel, params) for suppression.
func subKey(channel string, params []any) string {
	enc, err := json.Marshal(params)
	if err != nil {
		enc = []byte(fmt.Sprintf("%v", params))
	}
	return channel + "|" + string(enc)
}

// NoResume is the resume argument of a plain Subscribe: no token, the
// subscriber is owed only results produced after it joins.
const NoResume = time.Duration(-1)

// ErrDraining is returned while the broker refuses new work because it is
// draining for shutdown; clients fail over to another broker.
var ErrDraining = errors.New("broker: draining for shutdown")

// Subscribe creates a frontend subscription for subscriber to (channel,
// params), creating (or sharing) the backend subscription. It returns the
// frontend subscription ID. A subscriber re-subscribing to the same
// (channel, params) gets its existing frontend subscription back.
func (b *Broker) Subscribe(subscriber, channel string, params []any) (string, error) {
	return b.SubscribeResume(context.Background(), subscriber, channel, params, NoResume)
}

// SubscribeResume is Subscribe extended with the failover resume protocol:
// resume is the newest result timestamp the subscriber has already seen
// (its last acked marker), or NoResume. With a token, the subscriber's ack
// marker is rewound (never advanced) to it and the broker backfills the
// missed range from the cluster's result dataset into the result cache,
// then re-arms live push — so a subscriber landing on a successor broker
// after a failure loses nothing (at-least-once; the client dedups by
// timestamp).
func (b *Broker) SubscribeResume(ctx context.Context, subscriber, channel string, params []any, resume time.Duration) (string, error) {
	if subscriber == "" || channel == "" {
		return "", errors.New("broker: Subscribe needs subscriber and channel")
	}
	if b.draining.Load() {
		return "", ErrDraining
	}
	now := b.clock()
	b.mu.Lock()
	key := subKey(channel, params)
	bs := b.backendSubs[key]
	// Singleflight: while another goroutine is creating the backend
	// subscription for this key, wait for it instead of racing a duplicate
	// cluster subscribe — K concurrent resumes of one key collapse to one
	// cluster round trip.
	for bs == nil {
		fl := b.subFlights[key]
		if fl == nil {
			break // no flight in progress: this goroutine leads
		}
		b.mu.Unlock()
		<-fl.done
		b.mu.Lock()
		bs = b.backendSubs[key]
		// A failed leader leaves the map empty; loop to lead (or wait on
		// a newer flight).
	}
	created := false
	if bs == nil {
		// First frontend subscription for this (channel, params):
		// subscribe at the data cluster. Release the lock across the
		// network calls; the flight entry keeps followers parked.
		fl := &subFlight{done: make(chan struct{})}
		b.subFlights[key] = fl
		b.mu.Unlock()
		backendID, err := b.backend.Subscribe(channel, params, b.callbackURL)
		if err != nil {
			b.mu.Lock()
			delete(b.subFlights, key)
			close(fl.done)
			b.mu.Unlock()
			return "", fmt.Errorf("broker: backend subscribe: %w", err)
		}
		// The (channel, params) result dataset outlives brokers, so the
		// cluster may already hold history — owed only to resuming
		// subscribers. Start the backend marker at the cluster's newest
		// timestamp (fresh joiners get nothing old), rewound to the resume
		// token when one is presented so the backfill covers the gap.
		start := time.Duration(0)
		if latest, lerr := b.backend.LatestTimestamp(backendID); lerr == nil {
			start = latest
		} else {
			b.log.WarnContext(ctx, "latest-timestamp probe failed; assuming empty result dataset",
				slog.String("backend_sub", backendID), slog.Any("error", lerr))
		}
		if resume >= 0 && resume < start {
			start = resume
		}
		b.mu.Lock()
		delete(b.subFlights, key)
		// Re-check: belt and braces against a Subscribe that slipped past
		// the flight (e.g. an older code path).
		if existing := b.backendSubs[key]; existing != nil {
			// Lost the race: withdraw our duplicate backend sub.
			close(fl.done)
			b.mu.Unlock()
			_ = b.backend.Unsubscribe(backendID)
			b.mu.Lock()
			bs = existing
		} else {
			bs = &backendSub{
				key: key, id: backendID, fkey: fabricHash(key),
				channel: channel, params: params,
				bts:      start,
				attached: make(map[string]string),
			}
			b.backendSubs[key] = bs
			b.backendByID[backendID] = bs
			b.byFabric[bs.fkey] = bs
			created = true
			close(fl.done)
		}
	}
	if fsID, dup := bs.attached[subscriber]; dup {
		fs := b.frontend[fsID]
		if resume >= 0 && resume < fs.fts {
			fs.fts = resume
		}
		b.mu.Unlock()
		if resume >= 0 {
			b.finishResume(ctx, bs, fsID)
		}
		return fsID, nil
	}
	b.fsSeq++
	fs := &frontendSub{
		id:         fmt.Sprintf("%s-fs%06d", b.id, b.fsSeq),
		subscriber: subscriber,
		bs:         bs,
		fts:        bs.bts, // only results after joining are owed
	}
	if resume >= 0 && resume < fs.fts {
		fs.fts = resume
	}
	b.frontend[fs.id] = fs
	bs.refs++
	bs.attached[subscriber] = fs.id
	si := b.subIndex[subscriber]
	if si == nil {
		si = make(map[string]string, 1)
		b.subIndex[subscriber] = si
	}
	si[bs.id] = fs.id
	b.mu.Unlock()

	// Index an already-online session under the new interest so pushes
	// reach it without a reconnect (no-op while the subscriber is offline).
	b.sessions.register(subscriber, bs.id, fs.id)
	b.manager.Subscribe(bs.id, subscriber, now)
	if created {
		// A warm handoff may have left this key's cache contents in the
		// stash; seed them before any backfill so the resume range fetch
		// finds nothing left to pull.
		b.consumeWarm(ctx, bs)
	}
	if resume >= 0 {
		b.finishResume(ctx, bs, fs.id)
	}
	return fs.id, nil
}

// finishResume closes a resumed subscription's gap: it range-fetches what
// the result cache is missing from the cluster, clamps the ack marker into
// the valid range and re-arms live push toward the resumed subscriber with
// the current backend marker.
func (b *Broker) finishResume(ctx context.Context, bs *backendSub, fsID string) {
	b.failover.Resumes.Add(1)
	b.backfillGap(ctx, bs)
	b.mu.Lock()
	fs, ok := b.frontend[fsID]
	if !ok {
		b.mu.Unlock()
		return
	}
	if fs.fts > bs.bts {
		fs.fts = bs.bts
	}
	pending := fs.fts < bs.bts
	latest := bs.bts
	sub := fs.subscriber
	b.mu.Unlock()
	if pending {
		// A live notification racing the backfill can duplicate this push;
		// harmless — GetResults over (fts, bts] is idempotent.
		b.notifyAudience(ctx, bs, latest, sub, fsID)
	}
}

// backfillGap advances bs to the cluster's newest result. For a backend
// subscription just created with its marker rewound to a resume token this
// pulls exactly the range the resuming subscriber missed while its broker
// was down. On failure the marker stays behind: the next notification or a
// miss-path fetch retries the range, so at-least-once still holds.
func (b *Broker) backfillGap(ctx context.Context, bs *backendSub) {
	latest, err := b.backend.LatestTimestamp(bs.id)
	if err == nil {
		var pulled int // nothing is held, so every admitted object was pulled
		_, pulled, err = b.advance(ctx, bs, latest, nil, 0, false, nil)
		b.failover.Backfilled.Add(uint64(pulled))
	}
	if err != nil {
		b.log.WarnContext(ctx, "resume backfill failed",
			slog.String("backend_sub", bs.id), slog.Any("error", err))
	}
}

// Unsubscribe removes a frontend subscription; when the last attached
// frontend subscription goes away the backend subscription is withdrawn
// and its cache dropped.
func (b *Broker) Unsubscribe(subscriber, fsID string) error {
	now := b.clock()
	b.mu.Lock()
	fs, ok := b.frontend[fsID]
	if !ok || fs.subscriber != subscriber {
		b.mu.Unlock()
		return fmt.Errorf("broker: unknown frontend subscription %q", fsID)
	}
	delete(b.frontend, fsID)
	bs := fs.bs
	delete(bs.attached, subscriber)
	if si := b.subIndex[subscriber]; si != nil {
		delete(si, bs.id)
		if len(si) == 0 {
			delete(b.subIndex, subscriber)
		}
	}
	bs.refs--
	last := bs.refs == 0
	if last {
		delete(b.backendSubs, bs.key)
		delete(b.backendByID, bs.id)
		delete(b.byFabric, bs.fkey)
	}
	b.mu.Unlock()

	b.sessions.deregister(subscriber, bs.id)
	b.manager.Unsubscribe(bs.id, subscriber, now)
	if last {
		b.manager.DropCache(bs.id, now)
		if err := b.backend.Unsubscribe(bs.id); err != nil {
			return fmt.Errorf("broker: backend unsubscribe: %w", err)
		}
	}
	return nil
}

// ResultItem is one result object as a subscriber decodes it from the
// results route. Decoded by ResultsResponse.UnmarshalJSON, its strings
// that needed no unquoting — ID, row keys and string values — share one
// copy of the whole reply (up to httpx.MaxBodyBytes): strings.Clone what
// you keep long after the rest is dropped.
type ResultItem struct {
	ID          string           `json:"id"`
	TimestampNS int64            `json:"timestamp_ns"`
	Size        int64            `json:"size"`
	Rows        []map[string]any `json:"rows,omitempty"`
	// FromCache reports whether the object was served from the broker
	// cache (true) or re-fetched from the data cluster (false).
	FromCache bool `json:"from_cache"`
}

// Item is one result object of a retrieval: a ResultItem before the
// subscriber's decode, its rows still the bytes the cluster encoded (the
// cache's own bytes: read-only).
type Item struct {
	ID          string
	TimestampNS int64
	Size        int64
	Rows        json.RawMessage
	FromCache   bool
}

// Retrieval is a retrieval's full answer.
type Retrieval struct {
	// Items are the results, oldest first.
	Items []Item
	// Latest is the ack the subscriber's next retrieval carries; it stays
	// 0 when nothing may be acked (fetch failure or stale serve), so the
	// undelivered range is retried on the next retrieval.
	Latest time.Duration
	// Stale reports a degraded answer: the backend fetch failed and
	// Items is the cached portion only. Older objects may follow once
	// the data cluster recovers.
	Stale bool
}

// errUnknownFrontendSub marks a retrieval of a frontend subscription this
// broker does not hold for that subscriber, errNegativeAck one carrying a
// negative ack. The results route answers them 404 and 400 and every other
// retrieval failure 502 (retrievalStatus).
var (
	errUnknownFrontendSub = errors.New("broker: unknown frontend subscription")
	errNegativeAck        = errors.New("broker: ack must be a non-negative timestamp in nanoseconds")
)

// RetrieveContext is one retrieval of Algorithm 1: the ACK of the previous
// retrieval, then GETRESULTS over the (fts, bts] it leaves, serving from
// the cache where possible. ack is the Latest the subscriber's previous
// retrieval returned; it moves fsID's marker never backwards and never
// past bts, so 0 (nothing retrieved yet) and a repeated ack are no-ops. A
// negative ack is refused before anything is retrieved or consumed. ctx
// bounds any miss re-fetch from the data cluster.
//
// Under StaleServe a backend-fetch failure degrades instead of erroring:
// the cached portion is returned with Stale set and a zero marker, so the
// subscriber sees results — never an error — while the missed older range
// stays pending for redelivery.
func (b *Broker) RetrieveContext(ctx context.Context, subscriber, fsID string, ack time.Duration) (Retrieval, error) {
	if ack < 0 {
		return Retrieval{}, errNegativeAck
	}
	now := b.clock()
	// The ACK closes the previous delivery's trace: the client forwards
	// that delivery's push traceparent, so broker.client_ack and the
	// client_ack stage sample land in it.
	actx, asp := b.traces.Start(ctx, "broker.client_ack")
	asp.SetAttr("subscriber", subscriber)
	ackStart := time.Now()
	var bsID string
	var from, to time.Duration
	var err error
	b.mu.Lock()
	if fs, ok := b.frontend[fsID]; ok && fs.subscriber == subscriber {
		fs.fts = max(fs.fts, min(ack, fs.bs.bts))
		bsID, from, to = fs.bs.id, fs.fts, fs.bs.bts
	} else {
		err = fmt.Errorf("%w %q", errUnknownFrontendSub, fsID)
	}
	b.mu.Unlock()
	asp.SetError(err)
	asp.End()
	b.stages.Observe(actx, span.StageClientAck, span.OutcomeNone, time.Since(ackStart))
	if err != nil {
		return Retrieval{}, err
	}

	// Cache resolution runs in its own span, renamed to the outcome once
	// it is known (cache.local_hit / cache.peer_hop / cache.cluster_fetch
	// / cache.stale_serve), so a trace shows where this retrieval's bytes
	// actually came from. The same outcome labels the retrieve stage of
	// the delivery-latency histogram.
	ctx, sp := b.traces.Start(ctx, "broker.retrieve")
	sp.SetAttr("backend_sub", bsID)
	resolveStart := time.Now()

	// On a backend-fetch failure the manager still returns the cached
	// part; pass it through (with the error, or marked stale under
	// StaleServe) so the subscriber keeps what the cache could serve.
	objs, info, err := b.manager.Retrieve(ctx, bsID, subscriber, from, to, now)

	outcome := retrieveOutcome(objs, info)
	sp.SetName(cacheSpanNames[outcome])
	sp.SetAttr("objects", strconv.Itoa(len(objs)))
	sp.SetError(err)
	sp.End()
	b.stages.Observe(ctx, span.StageRetrieve, outcome, time.Since(resolveStart))

	items := make([]Item, len(objs))
	for i, o := range objs {
		items[i] = Item{
			ID:          o.ID,
			TimestampNS: int64(o.Timestamp),
			Size:        o.Size,
			Rows:        o.Payload,
			FromCache:   o.CacheID != "", // fetched objects carry no cache id
		}
	}
	if err != nil {
		// Partial answer: cached items only. Returning to as the marker
		// would be wrong — the missed range was never delivered — so the
		// caller must not ack past what it received.
		return Retrieval{Items: items}, err
	}
	if info.Stale {
		b.log.WarnContext(ctx, "serving stale results after backend fetch failure",
			"backend_sub", bsID, "subscriber", subscriber,
			"served", len(items), "error", info.FetchErr)
		return Retrieval{Items: items, Stale: true}, nil
	}
	return Retrieval{Items: items, Latest: to}, nil
}

// cacheSpanNames names the cache-resolution span after each outcome.
var cacheSpanNames = map[string]string{
	span.OutcomeLocalHit:     "cache." + span.OutcomeLocalHit,
	span.OutcomePeerHop:      "cache." + span.OutcomePeerHop,
	span.OutcomeClusterFetch: "cache." + span.OutcomeClusterFetch,
	span.OutcomeStaleServe:   "cache." + span.OutcomeStaleServe,
}

// retrieveOutcome classifies how a retrieval's objects were resolved,
// strongest first: a degraded stale answer trumps everything; otherwise
// any peer-served object marks the retrieval a peer hop, any fetched
// (uncached) object a cluster fetch, and a fully-cached answer a local
// hit.
func retrieveOutcome(objs []*core.Object, info core.RetrievalInfo) string {
	if info.Stale {
		return span.OutcomeStaleServe
	}
	outcome := span.OutcomeLocalHit
	for _, o := range objs {
		if o.Peer {
			return span.OutcomePeerHop
		}
		if o.CacheID == "" { // fetched objects carry no cache id
			outcome = span.OutcomeClusterFetch
		}
	}
	return outcome
}

// BackendSubID returns the data cluster subscription ID a frontend
// subscription attaches to. Push notifications over WebSocket carry this
// shared ID, so clients route them with it.
func (b *Broker) BackendSubID(subscriber, fsID string) (string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	fs, ok := b.frontend[fsID]
	if !ok || fs.subscriber != subscriber {
		return "", fmt.Errorf("broker: unknown frontend subscription %q", fsID)
	}
	return fs.bs.id, nil
}

// Marker returns fsID's current acknowledged-results marker. At subscribe
// time this is the subscriber's initial resume token: the newest result
// timestamp it is NOT owed.
func (b *Broker) Marker(subscriber, fsID string) (time.Duration, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	fs, ok := b.frontend[fsID]
	if !ok || fs.subscriber != subscriber {
		return 0, fmt.Errorf("broker: unknown frontend subscription %q", fsID)
	}
	return fs.fts, nil
}

// errUnknownBackendSub marks a notification for a backend subscription
// this broker does not hold; the callback handler answers it 404.
var errUnknownBackendSub = errors.New("broker: notification for unknown subscription")

// HandleNotificationContext reacts to the data cluster's webhook. Under
// the PULL model pushed is nil and latest names the newest result to pull;
// under the PUSH model the notification carried the result objects
// themselves (one or a coalesced batch, any order) and the marker moves to
// the newest of them; objects that name their predecessors back to the
// marker need no pull at all (chain). Either way the results reach the
// cache through advance, and the attached online subscribers are told once
// the marker has moved. ctx bounds the pull from the data cluster; a
// cancelled pull aborts before any object is admitted.
func (b *Broker) HandleNotificationContext(ctx context.Context, backendSubID string, latest time.Duration, pushed []bdms.ResultObject) error {
	return b.notify(ctx, backendSubID, latest, pushed, nil)
}

// HandleEnvelopeContext reacts to a webhook envelope: each entry is one
// notification, handled in order as HandleNotificationContext would, and
// its error (nil when the entry was taken) is reported in its place. What
// changes is the pulling: the ranges the entries need from the cluster —
// (marker, latest] for a PULL entry, the gap below its oldest object for a
// PUSH entry whose chain does not reach the marker — are read from the
// current markers and fetched in one batched call, which the entries'
// advances then share. An envelope that needs one range or none is not
// worth a batch: its entry pulls for itself.
func (b *Broker) HandleEnvelopeContext(ctx context.Context, entries []bdms.NotificationPayload) []error {
	errs := make([]error, len(entries))
	pre := make([]*prefetched, len(entries))
	if len(entries) > 1 {
		var sp *span.Span
		ctx, sp = b.traces.Start(ctx, "broker.envelope")
		sp.SetAttr("entries", strconv.Itoa(len(entries)))
		sp.SetAttr("pulled_ranges", strconv.Itoa(b.prefetch(ctx, entries, pre)))
		defer sp.End()
	}
	for i, e := range entries {
		errs[i] = b.notify(ctx, e.SubscriptionID, time.Duration(e.LatestNS), e.Results, pre[i])
	}
	return errs
}

// prefetched is one entry's share of an envelope's batched pull: the range
// asked for and the cluster's answer to it.
type prefetched struct {
	rng     bdms.ResultRange
	results []bdms.ResultObject
	err     error
}

// pullRange is what an arrival targeting upTo has to pull for subscription
// id when the marker stands at from: all of (from, upTo], or — oldest being
// the oldest object above the marker it holds (0: none) — the gap below it.
func pullRange(id string, from, upTo, oldest time.Duration) bdms.ResultRange {
	if oldest > 0 {
		return bdms.ResultRange{SubscriptionID: id, FromNS: int64(from), ToNS: int64(oldest)}
	}
	return bdms.ResultRange{SubscriptionID: id, FromNS: int64(from), ToNS: int64(upTo), Inclusive: true}
}

// prefetch fills pre with the pulls the entries' advances are about to
// make, fetched in batched calls of at most bdms.MaxResultRanges, and
// reports how many ranges that was. Fewer than two are left to advance: one
// range costs more batched than as the GET advance makes (loopback, one
// result: 41 µs / 180 allocs against 34 µs / 152), two cost less (46 µs /
// 221 against two GETs' 69 µs / 304).
func (b *Broker) prefetch(ctx context.Context, entries []bdms.NotificationPayload, pre []*prefetched) int {
	if _, isNC := b.manager.Policy().(core.NC); isNC {
		return 0
	}
	var ranges []bdms.ResultRange
	var owner []int // ranges[k] serves entries[owner[k]]
	b.mu.Lock()
	for i, e := range entries {
		bs, ok := b.backendByID[e.SubscriptionID]
		if !ok {
			continue
		}
		upTo, oldest := time.Duration(e.LatestNS), time.Duration(0)
		if len(e.Results) > 0 {
			run, cover := chain(e.Results)
			if 0 < cover && cover <= bs.bts {
				continue
			}
			upTo = run[len(run)-1].Timestamp
			if k := sort.Search(len(run), func(k int) bool { return run[k].Timestamp > bs.bts }); k < len(run) {
				oldest = run[k].Timestamp
			}
		}
		if upTo > bs.bts {
			ranges, owner = append(ranges, pullRange(bs.id, bs.bts, upTo, oldest)), append(owner, i)
		}
	}
	b.mu.Unlock()
	if len(ranges) < 2 {
		return 0
	}
	for lo := 0; lo < len(ranges); lo += bdms.MaxResultRanges {
		chunk := ranges[lo:min(lo+bdms.MaxResultRanges, len(ranges))]
		answers, err := b.backendResultsBatch(ctx, chunk)
		for k, rng := range chunk {
			p := &prefetched{rng: rng, err: err}
			if err == nil {
				if p.results = answers[k].Results; answers[k].Error != "" {
					p.err = errors.New(answers[k].Error)
				}
			}
			pre[owner[lo+k]] = p
		}
	}
	return len(ranges)
}

// chain reads what a pushed entry proves. Sorted by timestamp, its newest
// objects form a run in which each names the one before it as its
// predecessor (prev_ns), so the run is every result of the subscription in
// (cover, newest], cover being the predecessor the run's oldest names. The
// cover is 0 — nothing proven — when some object in the run names none: the
// subscription's first result, or a cluster that does not stamp them. An
// object naming a predecessor that is not the object before it marks a
// hole, and the run starts above it: what lies below is pulled, the hole
// with it. pushed is not modified.
func chain(pushed []bdms.ResultObject) (run []bdms.ResultObject, cover time.Duration) {
	byAge := func(a, b bdms.ResultObject) int { return cmp.Compare(a.Timestamp, b.Timestamp) }
	if !slices.IsSortedFunc(pushed, byAge) {
		pushed = slices.Clone(pushed)
		slices.SortFunc(pushed, byAge)
	}
	start, proven := 0, true
	for i := len(pushed) - 1; i > 0 && start == 0; i-- {
		switch prev := time.Duration(pushed[i].PrevNS); {
		case prev == 0:
			proven = false
		case prev != pushed[i-1].Timestamp:
			start = i
		}
	}
	run = pushed[start:]
	if !proven {
		return run, 0
	}
	return run, time.Duration(run[0].PrevNS)
}

// notify is one notification's arrival: advance, then tell the audience.
// pre, if any, is the pull an envelope already made for it.
func (b *Broker) notify(ctx context.Context, backendSubID string, latest time.Duration, pushed []bdms.ResultObject, pre *prefetched) (err error) {
	ctx, sp := b.traces.Start(ctx, "broker.notify")
	sp.SetAttr("backend_sub", backendSubID)
	defer func() {
		sp.SetError(err)
		sp.End()
	}()
	b.mu.Lock()
	bs, ok := b.backendByID[backendSubID]
	b.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w %q", errUnknownBackendSub, backendSubID)
	}
	var held []*core.Object
	var cover time.Duration
	if len(pushed) > 0 {
		sp.SetAttr("pushed", strconv.Itoa(len(pushed)))
		pushed, cover = chain(pushed)
		// A push vouches only for what it carries, so the target is the
		// newest pushed object whatever latest says.
		latest = pushed[len(pushed)-1].Timestamp
		held = make([]*core.Object, len(pushed))
		for i, r := range pushed {
			held[i] = b.object(r)
		}
	}
	moved, _, err := b.advance(ctx, bs, latest, held, cover, false, pre)
	if moved {
		// The fan-out readies the hub's writers, then each session's reader,
		// as a chain of direct hand-offs that Go's scheduler runs ahead of
		// its run queue. Yield first, so goroutines already waiting there are
		// not held up behind the burst: a PUSH callback is polled together
		// with the publisher's answer that caused it, and without this yield
		// that answer waited for the whole fan-out (DESIGN.md §4.3.1).
		runtime.Gosched()
		b.notifyAudience(ctx, bs, latest, "", "")
	}
	return err
}

// advance is Algorithm 1's NOTIFY routine and the broker's only one:
// results enter the result cache, and a backend marker moves, here and
// nowhere else (DESIGN.md §4.3.1). Every arrival route — webhook (PULL or
// PUSH), resume backfill, warm install — hands it the target upTo and the
// objects it already holds (none, one or many, any order).
//
// Under the subscription's pull lock, so concurrent arrivals never
// interleave their Puts: an upTo at or below the marker is a stale or
// duplicate arrival and a no-op. Otherwise held objects at or below the
// marker are dropped and what is missing is pulled from the cluster — all
// of (bts, upTo] when nothing is held, the gap below the oldest held object
// otherwise — unless cover proves there is nothing missing: the held
// objects are every result in (cover, upTo], so with 0 < cover <= bts the
// PUSH arrival needs no call to the cluster at all (chain). A failed pull
// with nothing held, or a failed Put, returns the error and leaves the
// marker behind, so a redelivery retries the range; a failed gap pull below
// held objects does not stop them being cached (the miss path serves the
// gap). FetchBytes counts the pulled objects only: not fetching is the PUSH
// model's whole benefit. NC admits and pulls nothing but still moves the
// marker.
//
// warm marks a snapshot install: its holes are the shipping broker's
// evictions, so nothing is pulled, and its bytes were counted when that
// broker first admitted them.
//
// pre is the pull an envelope made ahead for this arrival from the marker it
// read then; it stands in for the pull only if it is still the range to
// pull — a concurrent arrival that moved the marker voids it.
//
// It reports whether the marker moved and how many objects were admitted.
func (b *Broker) advance(ctx context.Context, bs *backendSub, upTo time.Duration, held []*core.Object, cover time.Duration, warm bool, pre *prefetched) (moved bool, admitted int, err error) {
	now := b.clock()
	bs.pullMu.Lock()
	defer bs.pullMu.Unlock()
	b.mu.Lock()
	from := bs.bts
	b.mu.Unlock()
	if upTo <= from {
		return false, 0, nil
	}
	if _, isNC := b.manager.Policy().(core.NC); !isNC {
		byAge := func(i, j int) bool { return held[i].Timestamp < held[j].Timestamp }
		if len(held) > 1 && !sort.SliceIsSorted(held, byAge) {
			sort.Slice(held, byAge)
		}
		for len(held) > 0 && held[0].Timestamp <= from {
			held = held[1:]
		}
		var pulled []bdms.ResultObject
		if !warm && (cover <= 0 || cover > from) {
			var oldest time.Duration
			if len(held) > 0 {
				oldest = held[0].Timestamp
			}
			if rng := pullRange(bs.id, from, upTo, oldest); pre != nil && pre.rng == rng {
				pulled, err = pre.results, pre.err
			} else {
				pulled, err = b.backendResults(ctx, bs.id, from, time.Duration(rng.ToNS), rng.Inclusive)
			}
			if err != nil && len(held) == 0 {
				return false, 0, fmt.Errorf("broker: pull results: %w", err)
			}
		}
		objs := make([]*core.Object, 0, len(pulled)+len(held))
		for _, r := range pulled {
			objs = append(objs, b.object(r))
		}
		objs = append(objs, held...)
		for i, o := range objs {
			if err := b.manager.Put(bs.id, o, now); err != nil {
				return false, admitted, fmt.Errorf("broker: cache put: %w", err)
			}
			admitted++
			if warm {
				continue
			}
			b.stats.VolumeBytes.Add(float64(o.Size))
			if i < len(pulled) {
				b.stats.FetchBytes.Add(float64(o.Size))
			}
		}
	}
	b.mu.Lock()
	bs.bts = upTo
	b.mu.Unlock()
	return true, admitted, nil
}

// object builds the cache object for a result received from the cluster or
// a peer, stamped with its estimated re-fetch latency l_ij.
func (b *Broker) object(r bdms.ResultObject) *core.Object {
	return &core.Object{
		ID:           r.ID,
		Timestamp:    r.Timestamp,
		Size:         r.Size,
		FetchLatency: b.fetchLatency(r.Size),
		Payload:      r.Rows,
	}
}

// notifyAudience pushes one "new results up to latest" event for bs: to
// every attached subscriber, or — the resume re-arm — to subscriber alone
// on its frontend subscription fsID. On the WebSocket path the audience is
// resolved inside the session hub by its interest index — one map lookup
// keyed by the backend subscription, no per-event copy of the attached set
// — the payload is encoded once per event, and enqueueing never blocks;
// delivery (and the Delivered counter) happens on the hub's pooled writer
// goroutines. A push-func override (experiments) delivers synchronously,
// one call per subscriber.
func (b *Broker) notifyAudience(ctx context.Context, bs *backendSub, latest time.Duration, subscriber, fsID string) {
	if b.push == nil {
		if subscriber == "" {
			b.sessions.broadcast(ctx, bs.id, int64(latest))
		} else {
			b.sessions.broadcastTo(ctx, bs.id, subscriber, fsID, int64(latest))
		}
		return
	}
	targets := map[string]string{subscriber: fsID}
	if subscriber == "" {
		b.mu.Lock()
		targets = make(map[string]string, len(bs.attached))
		for sub, fs := range bs.attached {
			targets[sub] = fs
		}
		b.mu.Unlock()
	}
	for sub, fs := range targets {
		n := PushNotification{
			Type: "results", FrontendSub: fs,
			BackendSub: bs.id, LatestNS: int64(latest),
		}
		if b.push(sub, n) {
			b.stats.Delivered.Inc()
		}
	}
}

// SetPushFunc overrides notification delivery; the experiment rigs use it
// to bypass WebSocket sessions and deliver synchronously. Pass nil to
// restore WebSocket delivery. Must be called before traffic flows.
func (b *Broker) SetPushFunc(fn func(subscriber string, n PushNotification) bool) {
	b.push = fn
}

// fetchLatency estimates l_ij: the added latency of retrieving an object
// of the given size from the data cluster.
func (b *Broker) fetchLatency(size int64) time.Duration {
	transfer := time.Duration(float64(size) / b.bw * float64(time.Second))
	return b.rtt + transfer
}

// backendResults pulls results from the data cluster. Pulls slower than
// b.slowFetch are logged with the request's trace, so a slow subscriber
// retrieval can be followed into the cluster.
func (b *Broker) backendResults(ctx context.Context, subID string, from, to time.Duration, inclusiveTo bool) (results []bdms.ResultObject, err error) {
	start := time.Now()
	ctx, sp := b.traces.Start(ctx, "broker.cluster_fetch")
	sp.SetAttr("subscription", subID)
	defer func() { b.pulled(ctx, sp, start, subID, len(results), err) }()
	return b.backend.ResultsContext(ctx, subID, from, to, inclusiveTo)
}

// backendResultsBatch is backendResults for an envelope's ranges: one
// call, one span, one broker_pull observation.
func (b *Broker) backendResultsBatch(ctx context.Context, ranges []bdms.ResultRange) (answers []bdms.RangeResults, err error) {
	start := time.Now()
	ctx, sp := b.traces.Start(ctx, "broker.cluster_fetch")
	sp.SetAttr("ranges", strconv.Itoa(len(ranges)))
	defer func() {
		n := 0
		for _, a := range answers {
			n += len(a.Results)
		}
		b.pulled(ctx, sp, start, "envelope of "+strconv.Itoa(len(ranges)), n, err)
	}()
	return b.backend.ResultsBatchContext(ctx, ranges)
}

// pulled closes a backend pull's span and stage observation.
func (b *Broker) pulled(ctx context.Context, sp *span.Span, start time.Time, what string, results int, err error) {
	d := time.Since(start)
	sp.SetError(err)
	sp.End()
	b.stages.Observe(ctx, span.StageBrokerPull, span.OutcomeNone, d)
	if d >= b.slowFetch {
		b.log.WarnContext(ctx, "slow backend fetch",
			slog.String("subscription", what),
			slog.Duration("duration", d),
			slog.Int("results", results),
			slog.Bool("failed", err != nil),
		)
	}
}

// fetchFromBackend is the core.Fetcher: re-fetch evicted/expired objects
// on a cache miss. In a fabric the lookup is two-tier — the HRW-owning
// sibling's cache first, the data cluster only when the peer cannot fully
// serve the range. It runs inside the manager's singleflight, so
// concurrent identical misses collapse to one peer lookup and at most one
// cluster fetch. Fetched objects are not re-cached (core enforces that by
// simply returning them).
func (b *Broker) fetchFromBackend(ctx context.Context, cacheID string, from, to time.Duration, inclusiveTo bool) ([]*core.Object, error) {
	if f := b.fabric; f != nil {
		if objs, ok := f.lookup(ctx, cacheID, from, to, inclusiveTo); ok {
			return objs, nil
		}
	}
	results, err := b.backendResults(ctx, cacheID, from, to, inclusiveTo)
	if err != nil {
		return nil, err
	}
	objs := make([]*core.Object, len(results))
	for i, r := range results {
		objs[i] = b.object(r)
	}
	return objs, nil
}

// DriveTTL recomputes TTLs and expires due objects; call it from a ticker
// (live) or scheduled events (experiments). It is a no-op under non-TTL
// policies.
func (b *Broker) DriveTTL() {
	now := b.clock()
	b.manager.RecomputeTTLs(now)
	b.manager.ExpireDue(now)
}

// ExpireDue drops expired objects without recomputing TTLs.
func (b *Broker) ExpireDue() int { return b.manager.ExpireDue(b.clock()) }

// FrontendSubscriptions lists a subscriber's frontend subscription IDs,
// sorted.
func (b *Broker) FrontendSubscriptions(subscriber string) []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []string
	for _, id := range b.subIndex[subscriber] {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
