package sim

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"gobad/internal/bcs"
	"gobad/internal/core"
	"gobad/internal/faults"
	"gobad/internal/metrics"
	"gobad/internal/obs"
	"gobad/internal/obs/span"
	"gobad/internal/workload"
)

// CacheSummary is per-cache data captured at the end of a run; Fig. 5(b)
// plots HoldingMean against TTLSeconds.
type CacheSummary struct {
	ID         string  `json:"id"`
	TTLSeconds float64 `json:"ttl_s"`
	// TTLStampedMean is the mean TTL actually stamped onto objects
	// (0 under non-stamping policies; use TTLSeconds then).
	TTLStampedMean float64 `json:"ttl_stamped_mean_s"`
	HoldingMean    float64 `json:"holding_mean_s"`
	HoldingN       int64   `json:"holding_n"`
	Subscribers    int     `json:"subscribers"`
}

// Result is the outcome of one simulation run.
type Result struct {
	Policy  string           `json:"policy"`
	Budget  int64            `json:"budget"`
	Metrics metrics.Snapshot `json:"metrics"`
	// RhoTTLSum is the mean observed sum_i(rho_i*T_i) (TTL policies).
	RhoTTLSum float64 `json:"rho_ttl_sum"`
	// FaultsInjected is how many faults the plan fired (0 without a
	// plan).
	FaultsInjected uint64 `json:"faults_injected,omitempty"`
	// PerCache summarizes every cache at the end of the run.
	PerCache []CacheSummary `json:"per_cache,omitempty"`
	// Events is the number of processed simulation events.
	Events uint64 `json:"events"`
}

// subSlot is one of a subscriber's concurrent subscriptions.
type subSlot struct {
	cache   int32
	marker  time.Duration // fts: newest retrieved result timestamp
	pending bool          // a retrieval event is already scheduled
}

// subscriber is one simulated end user.
type subscriber struct {
	on    bool
	slots []subSlot
}

// simulator is the run state.
type simulator struct {
	cfg Config
	q   eventQueue
	now time.Duration

	// independent random streams so policies see identical workloads
	arrivalRng *rand.Rand
	sizeRng    *rand.Rand
	onoffRng   *rand.Rand
	attachRng  *rand.Rand

	// managers holds one cache manager per simulated broker; the
	// single-broker configuration (Brokers=1) has exactly one and behaves
	// like the pre-fabric model. All managers share one stats bundle.
	managers []*core.Manager
	stats    *metrics.CacheStats
	injector *faults.Injector // nil without a fault plan
	// stageHist decomposes each modelled retrieval into the same
	// bad_delivery_latency_seconds stages the live brokers emit, so
	// simulated and live expositions are directly comparable.
	stageHist *obs.HistogramVec

	// cacheOwner[i] is the broker whose cache HRW owns backend
	// subscription i; subHome[k] is subscriber k's HRW home broker.
	cacheOwner []int
	subHome    []int

	// per backend subscription
	store     [][]*core.Object // persistent result store (the data cluster)
	bts       []time.Duration  // newest pulled timestamp per cache
	rate      []float64        // Poisson arrival rate (results/s)
	attachSet []map[int32]struct{}

	subs []subscriber
	zipf *workload.Zipf

	// expireAt is the earliest pending evExpire event time (0 = none);
	// it deduplicates expiry scheduling so stale duplicates cannot
	// accumulate.
	expireAt time.Duration

	events uint64
}

// cacheID renders the backend subscription id used as the cache key.
func cacheID(i int32) string { return fmt.Sprintf("bs%04d", i) }

func subName(k int32) string { return fmt.Sprintf("s%05d", k) }

// ownerMgr is the manager of the broker whose cache owns backend
// subscription i; homeMgr is the manager subscriber k retrieves through.
func (s *simulator) ownerMgr(i int32) *core.Manager { return s.managers[s.cacheOwner[i]] }
func (s *simulator) homeMgr(k int32) *core.Manager  { return s.managers[s.subHome[k]] }

// brokerFetcher is broker b's miss path: when another broker HRW-owns the
// subscription's cache, peek at that sibling first (the fabric's peer
// tier); anything the peer cannot fully vouch for falls through to the
// cluster fetcher. Peer copies carry Peer=true, so the manager counts
// them as misses without charging cluster fetch bytes.
func (s *simulator) brokerFetcher(b int, cluster core.Fetcher) core.Fetcher {
	return core.FetcherFunc(func(ctx context.Context, id string, from, to time.Duration, inclusiveTo bool) ([]*core.Object, error) {
		var i int32
		if _, err := fmt.Sscanf(id, "bs%d", &i); err == nil && !s.cfg.NoPeerLookup {
			if owner := s.cacheOwner[i]; owner != b {
				if objs, complete := s.managers[owner].Peek(id, from, to, inclusiveTo); complete {
					s.stats.PeerHits.Add(1)
					out := make([]*core.Object, 0, len(objs))
					for _, o := range objs {
						out = append(out, &core.Object{
							ID: o.ID, Timestamp: o.Timestamp, Size: o.Size,
							FetchLatency: s.peerLatency(o.Size), Peer: true,
						})
					}
					return out, nil
				}
				s.stats.PeerMisses.Add(1)
			}
		}
		return cluster.Fetch(ctx, id, from, to, inclusiveTo)
	})
}

// Run executes one simulation and returns its metrics.
func Run(cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	s := &simulator{
		cfg:        cfg,
		arrivalRng: rand.New(rand.NewSource(workload.DeriveSeed(cfg.Seed, "arrivals", 0))),
		sizeRng:    rand.New(rand.NewSource(workload.DeriveSeed(cfg.Seed, "sizes", 0))),
		onoffRng:   rand.New(rand.NewSource(workload.DeriveSeed(cfg.Seed, "onoff", 0))),
		attachRng:  rand.New(rand.NewSource(workload.DeriveSeed(cfg.Seed, "attach", 0))),
		stats:      &metrics.CacheStats{},
		stageHist:  span.NewDeliveryHistogram(),
	}
	var fetcher core.Fetcher = core.FetcherFunc(s.fetch)
	if cfg.FaultPlan != nil {
		s.injector = faults.NewInjector(*cfg.FaultPlan,
			faults.WithClock(func() time.Duration { return s.now }),
			// Injected latency is modelled, not slept: simulated fetches
			// are instantaneous and latency faults only matter through
			// their error semantics here.
			faults.WithSleep(func(context.Context, time.Duration) error { return nil }),
		)
		fetcher = faults.Fetcher(s.injector, "cluster.fetch", fetcher)
	}
	// One manager per broker, the budget split evenly; each broker's miss
	// path goes peer tier first (unless disabled), then the — possibly
	// fault-injected — cluster fetch.
	budget := cfg.CacheBudget
	if cfg.Brokers > 1 {
		budget = cfg.CacheBudget / int64(cfg.Brokers)
	}
	s.managers = make([]*core.Manager, cfg.Brokers)
	for b := 0; b < cfg.Brokers; b++ {
		mgr, err := core.NewManager(core.Config{
			Policy:     cfg.Policy,
			Budget:     budget,
			Fetcher:    s.brokerFetcher(b, fetcher),
			TTL:        cfg.TTL,
			Stats:      s.stats,
			StaleServe: cfg.StaleServe,
		})
		if err != nil {
			return Result{}, err
		}
		s.managers[b] = mgr
	}
	if err := s.setup(); err != nil {
		return Result{}, err
	}
	s.loop()
	if cfg.ExpositionWriter != nil {
		if err := s.writeExposition(cfg.ExpositionWriter); err != nil {
			return Result{}, fmt.Errorf("sim: write exposition: %w", err)
		}
	}
	return s.result(), nil
}

// writeExposition dumps the run's final metric state in Prometheus text
// format: the cache stats bundle closed out at the configured duration plus
// the manager's structural gauges.
func (s *simulator) writeExposition(w io.Writer) error {
	reg := obs.NewRegistry()
	reg.MustRegister(s.stats.Collector(func() time.Duration { return s.cfg.Duration }))
	// The manager collector emits fixed family names, so only one can
	// register; with a multi-broker fabric the structural gauges come from
	// the first broker's manager and the remaining brokers are summarized by
	// the shared cache-stats bundle above.
	reg.MustRegister(s.managers[0])
	reg.MustRegister(s.stageHist)
	return reg.WriteText(w)
}

// setup seeds the initial event population.
func (s *simulator) setup() error {
	cfg := s.cfg
	n := cfg.BackendSubs

	// HRW placement over the simulated fabric: caches and subscribers are
	// placed exactly as the live BCS would place them, so a single ring
	// view determines both where results are pulled and where each
	// subscriber retrieves.
	ring := bcs.RingView{Epoch: 1}
	idx := make(map[string]int, cfg.Brokers)
	for b := 0; b < cfg.Brokers; b++ {
		id := fmt.Sprintf("sim-broker-%d", b)
		ring.Brokers = append(ring.Brokers, bcs.BrokerInfo{ID: id})
		idx[id] = b
	}
	s.cacheOwner = make([]int, n)
	for i := 0; i < n; i++ {
		s.cacheOwner[i] = idx[ring.OwnerID(cacheID(int32(i)))]
	}
	s.subHome = make([]int, cfg.Subscribers)
	for k := 0; k < cfg.Subscribers; k++ {
		s.subHome[k] = idx[ring.OwnerID(subName(int32(k)))]
	}

	s.store = make([][]*core.Object, n)
	s.bts = make([]time.Duration, n)
	s.rate = make([]float64, n)
	s.attachSet = make([]map[int32]struct{}, n)
	for i := 0; i < n; i++ {
		s.attachSet[i] = make(map[int32]struct{})
		// Each backend subscription draws a fixed mean inter-arrival
		// time in [Lo, Hi] and produces a Poisson stream at that rate.
		lo, hi := cfg.ArrivalIntervalLo.Seconds(), cfg.ArrivalIntervalHi.Seconds()
		mean := lo + s.arrivalRng.Float64()*(hi-lo)
		s.rate[i] = 1 / mean
		s.scheduleArrival(int32(i), 0)
	}

	if cfg.ZipfS > 0 {
		z, err := workload.NewZipf(n, cfg.ZipfS)
		if err != nil {
			return err
		}
		s.zipf = z
	}

	s.subs = make([]subscriber, cfg.Subscribers)
	for k := 0; k < cfg.Subscribers; k++ {
		join := time.Duration(s.onoffRng.Float64() * float64(cfg.JoinWindow))
		s.q.schedule(join, evOn, int32(k), 0)
	}

	// TTL recomputation runs under every policy: TTL/EXP need it to
	// stamp objects; eviction policies get hypothetical TTL assignments
	// for the Fig. 5(b) holding-vs-TTL comparison.
	interval := cfg.TTL.RecomputeInterval
	if interval <= 0 {
		interval = s.managers[0].TTLRecomputeInterval()
	}
	s.q.schedule(interval, evTTLRecompute, 0, 0)
	return nil
}

// loop drains the event queue until the configured duration elapses.
func (s *simulator) loop() {
	for {
		ev, ok := s.q.next()
		if !ok || ev.at > s.cfg.Duration {
			s.now = s.cfg.Duration
			return
		}
		s.now = ev.at
		s.events++
		switch ev.kind {
		case evArrival:
			s.handleArrival(ev.a)
		case evRetrieve:
			s.handleRetrieve(ev.a, ev.b)
		case evOn:
			s.handleOn(ev.a)
		case evOff:
			s.handleOff(ev.a)
		case evChurn:
			s.handleChurn(ev.a, ev.b)
		case evTTLRecompute:
			for _, m := range s.managers {
				m.RecomputeTTLs(s.now)
			}
			s.scheduleExpiry()
			s.q.schedule(s.now+s.managers[0].TTLRecomputeInterval(), evTTLRecompute, 0, 0)
		case evExpire:
			if ev.at != s.expireAt {
				break // superseded duplicate
			}
			s.expireAt = 0
			for _, m := range s.managers {
				m.ExpireDue(s.now)
			}
			s.scheduleExpiry()
		}
	}
}

// scheduleArrival plans cache i's next Poisson arrival after time at.
func (s *simulator) scheduleArrival(i int32, at time.Duration) {
	gap := s.arrivalRng.ExpFloat64() / s.rate[i]
	s.q.schedule(at+time.Duration(gap*float64(time.Second)), evArrival, i, 0)
}

// handleArrival produces a result object at the data cluster, pulls it into
// the broker cache and notifies attached online subscribers.
func (s *simulator) handleArrival(i int32) {
	s.scheduleArrival(i, s.now)
	size := int64(s.cfg.ObjectSize.Sample(s.sizeRng))
	if size < 1 {
		size = 1
	}
	ts := s.now
	if last := s.bts[i]; ts <= last {
		ts = last + time.Nanosecond
	}
	id := fmt.Sprintf("%s-o%d", cacheID(i), len(s.store[i])+1)
	fetchLat := s.clusterLatency(size)
	// The persistent store copy (the data cluster keeps everything).
	s.store[i] = append(s.store[i], &core.Object{
		ID: id, Timestamp: ts, Size: size, FetchLatency: fetchLat,
	})
	// The owning broker pulls the object into its cache (PULL model). The
	// pull is the base volume every policy pays (Fig. 4a's 'Vol').
	cached := &core.Object{ID: id, Timestamp: ts, Size: size, FetchLatency: fetchLat}
	if err := s.ownerMgr(i).Put(cacheID(i), cached, s.now); err == nil {
		s.stats.VolumeBytes.Add(float64(size))
		s.stats.FetchBytes.Add(float64(size))
	}
	s.bts[i] = ts
	if s.cfg.Policy.AutoExpire() {
		s.scheduleExpiry()
	}

	// Notify attached online subscribers; they retrieve after the pull
	// and notification propagation delay.
	notifyAt := s.now + s.clusterLatency(size) + s.cfg.NotifyDelay
	// Sorted, not map order: same-instant retrievals carry different
	// latencies in a fabric (owner hit vs peer lookup), so their event
	// order must not depend on map iteration or runs stop being
	// reproducible bit-for-bit.
	attached := make([]int32, 0, len(s.attachSet[i]))
	for k := range s.attachSet[i] {
		attached = append(attached, k)
	}
	sort.Slice(attached, func(a, b int) bool { return attached[a] < attached[b] })
	for _, k := range attached {
		sub := &s.subs[k]
		if !sub.on {
			continue
		}
		if slot := sub.slot(i); slot != nil && !slot.pending {
			slot.pending = true
			s.q.schedule(notifyAt, evRetrieve, k, i)
		}
	}
}

// slot returns the subscriber's slot attached to cache i, or nil.
func (u *subscriber) slot(i int32) *subSlot {
	for idx := range u.slots {
		if u.slots[idx].cache == i {
			return &u.slots[idx]
		}
	}
	return nil
}

// handleRetrieve performs one subscriber retrieval (Algorithm 1
// GETRESULTS) and accounts the subscriber-perceived latency.
func (s *simulator) handleRetrieve(k, i int32) {
	sub := &s.subs[k]
	slot := sub.slot(i)
	if slot == nil {
		return // churned away while the notification was in flight
	}
	slot.pending = false
	if !sub.on {
		return // went offline before retrieving
	}
	from, to := slot.marker, s.bts[i]
	if to <= from {
		return
	}
	objs, info, err := s.homeMgr(k).Retrieve(context.Background(), cacheID(i), subName(k), from, to, s.now)
	if err != nil {
		return // nothing delivered; the range stays pending for the next notification
	}
	if !info.Stale {
		slot.marker = to
	}
	// A stale serve delivers the cached portion but leaves the marker,
	// exactly like the live broker's zero ack: the missed older range is
	// retried on the next notification once the cluster recovers.
	if len(objs) == 0 {
		return
	}
	var total, missed, peered int64
	for _, o := range objs {
		total += o.Size
		switch {
		case o.Peer: // served by the owning sibling's cache
			peered += o.Size
		case o.CacheID == "": // fetched from the data cluster, not cached
			missed += o.Size
		}
	}
	// The modelled latency decomposes into the live brokers' delivery
	// stages: the broker→subscriber link is the ws_write leg, the cluster
	// portion the broker_pull leg and the sibling portion the peer_lookup
	// leg; the total is the retrieve stage, labeled with the same cache
	// outcome the live path derives.
	linkLat := s.cfg.BrokerSubRTT.Seconds() + float64(total)/s.cfg.BrokerSubBW
	latency := linkLat
	s.stageHist.With(span.StageWSWrite, span.OutcomeNone).Observe(linkLat)
	outcome := span.OutcomeLocalHit
	if missed > 0 {
		clusterLat := s.cfg.BrokerClusterRTT.Seconds() + float64(missed)/s.cfg.BrokerClusterBW
		latency += clusterLat
		s.stageHist.With(span.StageBrokerPull, span.OutcomeNone).Observe(clusterLat)
		outcome = span.OutcomeClusterFetch
	}
	if peered > 0 {
		peerLat := s.cfg.BrokerPeerRTT.Seconds() + float64(peered)/s.cfg.BrokerPeerBW
		latency += peerLat
		s.stageHist.With(span.StagePeerLookup, span.OutcomeNone).Observe(peerLat)
		outcome = span.OutcomePeerHop
	}
	if info.Stale {
		outcome = span.OutcomeStaleServe
	}
	s.stageHist.With(span.StageRetrieve, outcome).Observe(latency)
	s.stats.Latency.Observe(latency)
	s.stats.Delivered.Add(float64(len(objs)))
}

// handleOn brings a subscriber online: first arrival builds its
// subscription slots; every ON triggers catch-up retrievals.
func (s *simulator) handleOn(k int32) {
	sub := &s.subs[k]
	if sub.slots == nil {
		for len(sub.slots) < s.cfg.SubsPerSubscriber && len(sub.slots) < s.cfg.BackendSubs {
			s.attachSlot(k)
		}
	}
	sub.on = true
	// Catch-up retrieval per slot, spread slightly to avoid lockstep.
	for idx := range sub.slots {
		slot := &sub.slots[idx]
		if !slot.pending && s.bts[slot.cache] > slot.marker {
			slot.pending = true
			jitter := time.Duration(s.onoffRng.Intn(1000)) * time.Millisecond
			s.q.schedule(s.now+s.cfg.BrokerSubRTT+jitter, evRetrieve, k, slot.cache)
		}
	}
	onDur := workload.LognormalFromMoments(s.cfg.OnMean.Seconds(), s.cfg.OnStd.Seconds())
	s.q.schedule(s.now+secs(onDur.Sample(s.onoffRng)), evOff, k, 0)
}

// handleOff sends a subscriber offline and schedules its return.
func (s *simulator) handleOff(k int32) {
	s.subs[k].on = false
	offDur := workload.LognormalFromMoments(s.cfg.OffMean.Seconds(), s.cfg.OffStd.Seconds())
	s.q.schedule(s.now+secs(offDur.Sample(s.onoffRng)), evOn, k, 0)
}

// attachSlot draws a backend subscription (Zipf or uniform, deduplicated
// per subscriber), attaches subscriber k to it and schedules its churn.
func (s *simulator) attachSlot(k int32) {
	sub := &s.subs[k]
	var cache int32
	for tries := 0; ; tries++ {
		if s.zipf != nil {
			cache = int32(s.zipf.Sample(s.attachRng))
		} else {
			cache = int32(s.attachRng.Intn(s.cfg.BackendSubs))
		}
		if sub.slot(cache) == nil {
			break
		}
		if tries > 50 {
			// Linear probe from the drawn rank.
			for off := int32(0); off < int32(s.cfg.BackendSubs); off++ {
				c := (cache + off) % int32(s.cfg.BackendSubs)
				if sub.slot(c) == nil {
					cache = c
					break
				}
			}
			break
		}
	}
	sub.slots = append(sub.slots, subSlot{cache: cache, marker: s.bts[cache]})
	s.attachSet[cache][k] = struct{}{}
	// The attachment registers at the OWNER's manager: that is where the
	// cache and its per-object pending sets live. The home broker of a
	// non-owned subscription keeps no cache at all — its retrievals fall
	// through to the peer tier.
	s.ownerMgr(cache).Subscribe(cacheID(cache), subName(k), s.now)
	if s.cfg.SubscriptionLifetime.Sigma > 0 || s.cfg.SubscriptionLifetime.Mu > 0 {
		life := s.cfg.SubscriptionLifetime.Sample(s.attachRng)
		at := s.now + time.Duration(life*float64(s.cfg.SubscriptionLifetimeUnit))
		s.q.schedule(at, evChurn, k, cache)
	}
}

// handleChurn ends subscriber k's subscription to cache i and re-draws a
// replacement, keeping the concurrent subscription count constant.
func (s *simulator) handleChurn(k, i int32) {
	sub := &s.subs[k]
	slot := sub.slot(i)
	if slot == nil {
		return
	}
	for idx := range sub.slots {
		if sub.slots[idx].cache == i {
			sub.slots = append(sub.slots[:idx], sub.slots[idx+1:]...)
			break
		}
	}
	delete(s.attachSet[i], k)
	s.ownerMgr(i).Unsubscribe(cacheID(i), subName(k), s.now)
	s.attachSlot(k)
}

// nextExpiry is the earliest TTL deadline across every broker's manager.
func (s *simulator) nextExpiry() (time.Duration, bool) {
	var at time.Duration
	ok := false
	for _, m := range s.managers {
		if v, has := m.NextExpiry(); has && (!ok || v < at) {
			at, ok = v, true
		}
	}
	return at, ok
}

// scheduleExpiry keeps exactly one pending expiry event aligned with the
// fabric's earliest TTL deadline.
func (s *simulator) scheduleExpiry() {
	at, ok := s.nextExpiry()
	if !ok {
		return
	}
	if at <= s.now {
		for _, m := range s.managers {
			m.ExpireDue(s.now)
		}
		at, ok = s.nextExpiry()
		if !ok {
			return
		}
	}
	if at > s.cfg.Duration {
		return
	}
	// Only schedule when it beats the pending expiry event; the
	// superseded event is ignored on dequeue.
	if s.expireAt == 0 || at < s.expireAt {
		s.expireAt = at
		s.q.schedule(at, evExpire, 0, 0)
	}
}

// fetch implements core.Fetcher against the persistent store. The context
// is ignored: the store is in-memory and the simulator is single-threaded.
func (s *simulator) fetch(_ context.Context, id string, from, to time.Duration, inclusiveTo bool) ([]*core.Object, error) {
	var i int32
	if _, err := fmt.Sscanf(id, "bs%d", &i); err != nil {
		return nil, fmt.Errorf("sim: bad cache id %q", id)
	}
	objs := s.store[i]
	lo := sort.Search(len(objs), func(x int) bool { return objs[x].Timestamp > from })
	var out []*core.Object
	for _, o := range objs[lo:] {
		if o.Timestamp > to || (o.Timestamp == to && !inclusiveTo) {
			break
		}
		out = append(out, o)
	}
	return out, nil
}

// clusterLatency is the broker<->cluster transfer cost for size bytes.
func (s *simulator) clusterLatency(size int64) time.Duration {
	return s.cfg.BrokerClusterRTT + time.Duration(float64(size)/s.cfg.BrokerClusterBW*float64(time.Second))
}

// peerLatency is the broker<->broker transfer cost for size bytes.
func (s *simulator) peerLatency(size int64) time.Duration {
	return s.cfg.BrokerPeerRTT + time.Duration(float64(size)/s.cfg.BrokerPeerBW*float64(time.Second))
}

func secs(v float64) time.Duration {
	return time.Duration(v * float64(time.Second))
}

// result snapshots the run.
func (s *simulator) result() Result {
	var injected uint64
	if s.injector != nil {
		injected, _ = s.injector.Injected()
	}

	var infos []core.CacheInfo
	var rhoTTL float64
	for _, m := range s.managers {
		infos = append(infos, m.CacheInfos()...)
		rhoTTL += m.RhoTTLSum()
	}
	per := make([]CacheSummary, 0, len(infos))
	for _, ci := range infos {
		per = append(per, CacheSummary{
			ID:             ci.ID,
			TTLSeconds:     ci.TTL.Seconds(),
			TTLStampedMean: ci.TTLStampedMean,
			HoldingMean:    ci.HoldingMean,
			HoldingN:       ci.HoldingN,
			Subscribers:    ci.Subscribers,
		})
	}
	return Result{
		Policy:         s.cfg.Policy.Name(),
		Budget:         s.cfg.CacheBudget,
		Metrics:        s.stats.SnapshotAt(s.cfg.Duration),
		RhoTTLSum:      rhoTTL,
		FaultsInjected: injected,
		PerCache:       per,
		Events:         s.events,
	}
}
