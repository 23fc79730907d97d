package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gobad/internal/bdms"
	"gobad/internal/broker"
	"gobad/internal/client"
	"gobad/internal/trace"
)

// The load generator. It is open loop: one publisher goroutine sends on a
// precomputed due-time schedule whatever the system does, and a retrieval
// pool of poolSize workers performs every client.GetResults. Subscriber
// sessions are passive sockets; each has a forwarder goroutine only
// because Client.Notifications() is a channel per client.

// timed is one duration sample stamped with the time it belongs to.
type timed struct{ at, dur time.Duration }

// recorder collects what one goroutine of the generator observed, so the
// hot path appends without locking.
type recorder struct {
	obs       []observation
	retrieves []timed // pool GetResults calls
	poolWait  []timed
}

type notifStamp struct {
	latestNS int64
	at       time.Duration
}

// subState is one subscriber's live subscription to one signature.
type subState struct {
	sess *sessionState
	fs   string
	sig  int
	inst int // index into harness.instances

	// mu serialises GetResults on this subscription: the client's
	// watermark dedup assumes one retrieval at a time, as one real
	// subscriber would make.
	mu    sync.Mutex
	order int
	gone  bool // unsubscribed; guarded by mu
	// pending is set while a pool job for this subscription is queued and
	// not yet started; a push arriving meanwhile is covered by that job.
	pending atomic.Bool

	nmu    sync.Mutex
	notifs []notifStamp // push frames not yet matched to a delivery
}

// sessionState is one subscriber: its client and its subscriptions.
type sessionState struct {
	idx  int
	name string
	c    *client.Client

	mu    sync.RWMutex
	byFS  map[string]*subState
	bySig map[int]*subState

	online  bool
	span    int // index into harness.sessionSpans of the current login
	stopFwd chan struct{}
	fwdDone chan struct{}
}

type job struct {
	st      *subState
	notifAt time.Duration
}

// snapshot is every counter read at a slice boundary.
type snapshot struct {
	at         time.Duration
	cpu        time.Duration
	mallocs    uint64
	totalAlloc uint64
	numGC      uint32
	pauseNS    uint64
	goroutines int
	delivered  int64

	fetchedBytes                             float64 // cluster side
	requests, hits, hitBytes, missBytes      float64
	evictions, expirations, pushDelivered    float64
	ingested, evalGroups, evalSubs           float64
	walAppends, walRecords                   float64
	whDelivered, whRedelivered, whDropped    uint64
	pushEnqueued, pushCoalesced, pushDropped uint64
	notifsRead, wireEst                      int64
	roundTrips, wireBytes, backendPulls      int64
	resultsBytes, resultsFetches             int64
	walFileBytes                             int64
	flightLeaders, flightCoalesced           uint64
	getCalls, itemsReturned                  int64
}

// harness is one set-up stack plus the generator state driving it.
type harness struct {
	cfg   runConfig
	p     *plan
	st    *stack
	t     *tracer
	epoch time.Time

	sessions     []*sessionState
	subscriberIx map[string]int
	// subscribersOf lists, for static workloads, who holds each signature.
	subscribersOf [][]int

	// instances and sessionSpans are appended by the set-up / control
	// goroutine only and read after it has finished.
	instances    []subInstance
	sessionSpans []sessionSpan

	jobs     chan job
	workers  sync.WaitGroup
	recs     []*recorder // one per pool worker
	ctlRec   *recorder   // set-up / control goroutine
	inflight atomic.Int64

	delivered  atomic.Int64
	notifsRead atomic.Int64
	wireEst    atomic.Int64
	getCalls   atomic.Int64
	itemsRet   atomic.Int64

	// control-path timings, client side (ms); like instances, written by
	// the set-up / control goroutine only.
	subscribeMS, unsubscribeMS []float64
	loginMS                    []float64

	errMu    sync.Mutex
	firstErr error

	winStart time.Duration // offset of the window start from epoch
}

func (h *harness) now() time.Duration { return time.Since(h.epoch) }

func (h *harness) fail(err error) {
	h.errMu.Lock()
	if h.firstErr == nil {
		h.firstErr = err
	}
	h.errMu.Unlock()
}

func (h *harness) err() error {
	h.errMu.Lock()
	defer h.errMu.Unlock()
	return h.firstErr
}

// poolSize is the retrieval pool: one worker per processor the run is
// pinned to.
func poolSize() int { return runtime.GOMAXPROCS(0) }

// setUp builds a stack and brings the workload to its steady state:
// dataset and channels, seed records, every session placed through the
// BCS, connected and subscribed, then the closed-loop warm-up.
func setUp(cfg runConfig, p *plan) (_ *harness, err error) {
	h := &harness{
		cfg: cfg, p: p, epoch: time.Now(),
		subscriberIx: make(map[string]int, len(p.subscribers)),
		// Sized so a forwarder never blocks on a slow pool: the generator
		// stays open loop and the backlog shows as pool wait instead.
		jobs:   make(chan job, 1<<16),
		ctlRec: &recorder{},
	}
	if cfg.trace {
		h.t = newTracer(h.epoch)
	}
	dir, err := os.MkdirTemp(cfg.workDir, "stack-")
	if err != nil {
		return nil, err
	}
	if h.st, err = startStack(dir, p.cacheBudget, h.t); err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	defer func() {
		if err != nil {
			h.tearDown()
		}
	}()

	if err := h.st.publisher.CreateDataset(p.dataset, bdms.Schema{}); err != nil {
		return nil, err
	}
	for _, def := range p.channels {
		if err := h.st.publisher.DefineChannel(def); err != nil {
			return nil, err
		}
	}
	// Seed records: stored before anyone subscribes, matched by no one.
	seed := make([]map[string]any, 64)
	for i := range seed {
		seed[i] = map[string]any{"pub": 0.0, "key": "seed", "etype": "seed", "severity": 0.0,
			"location": map[string]any{"lat": 0.0, "lon": 0.0}}
	}
	if _, err := h.st.publisher.IngestBatch(p.dataset, seed); err != nil {
		return nil, err
	}

	for i := 0; i < poolSize(); i++ {
		rec := &recorder{}
		h.recs = append(h.recs, rec)
		h.workers.Add(1)
		go h.worker(rec)
	}
	for i, name := range p.subscribers {
		h.subscriberIx[name] = i
		h.sessions = append(h.sessions, &sessionState{idx: i, name: name,
			byFS: make(map[string]*subState), bySig: make(map[int]*subState)})
	}

	target := &controlTarget{h: h}
	if p.static != nil {
		h.subscribersOf = make([][]int, len(p.sigs))
		for s, sigs := range p.static {
			if err := target.Login(p.subscribers[s]); err != nil {
				return nil, err
			}
			for _, sig := range sigs {
				if err := target.Subscribe(p.subscribers[s], p.sigs[sig].Channel, p.sigs[sig].Params); err != nil {
					return nil, err
				}
				h.subscribersOf[sig] = append(h.subscribersOf[sig], s)
			}
		}
		var expect int64
		for i := range p.warm {
			ev := &p.warm[i]
			if _, _, err := h.publish(ev); err != nil {
				return nil, err
			}
			expect += h.owed(ev)
			if err := h.waitDelivered(expect, 10*time.Second); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	} else {
		if err := trace.Play(p.prefix, target); err != nil {
			return nil, err
		}
		h.quiesce(5 * time.Second)
	}
	return h, h.err()
}

// owed is how many deliveries one event of a static workload produces:
// every subscriber of every signature each of its records matches.
func (h *harness) owed(ev *pubEvent) int64 {
	var n int64
	for _, id := range ev.IDs {
		for _, sig := range h.p.pubSigs[id] {
			n += int64(len(h.subscribersOf[sig]))
		}
	}
	return n
}

// waitDelivered blocks until the delivered counter reaches n.
func (h *harness) waitDelivered(n int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for h.delivered.Load() < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d deliveries after %v", h.delivered.Load(), n, timeout)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// quiesce waits until the delivery pipeline has been idle for 50 ms: no
// notification in the webhook queue, no retrieval queued or running, no
// delivery counted. It gives up after timeout.
func (h *harness) quiesce(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	last, stableSince := int64(-1), time.Now()
	for time.Now().Before(deadline) {
		ns := h.st.notifier.Stats()
		settled := ns.Delivered.Load() + ns.Dropped.Load() + ns.Lost.Load()
		idle := len(h.jobs) == 0 && h.inflight.Load() == 0 &&
			float64(settled) >= h.st.cluster.Stats().Notifications.Value()
		cur := h.delivered.Load()
		if !idle || cur != last {
			last, stableSince = cur, time.Now()
		} else if time.Since(stableSince) >= 50*time.Millisecond {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// publish sends one event and returns when the ingest call started and
// returned.
func (h *harness) publish(ev *pubEvent) (sent, acked time.Duration, err error) {
	ctx := context.Background()
	var id int64
	if h.t.enabled() {
		id = h.t.reserve()
		ctx = withSpan(ctx, id)
	}
	sent = h.now()
	if ev.Batch {
		_, err = h.st.publisher.IngestBatchContext(ctx, h.p.dataset, ev.Records)
	} else {
		_, err = h.st.publisher.IngestContext(ctx, h.p.dataset, ev.Records[0])
	}
	acked = h.now()
	if id != 0 {
		h.t.addWithID(id, spanPublishCall, strconv.Itoa(ev.IDs[0]), 0, sent, acked)
	}
	return sent, acked, err
}

// forward moves one session's push notifications into the retrieval pool,
// stamping when each was read.
func (h *harness) forward(s *sessionState, stop, done chan struct{}) {
	defer close(done)
	ch := s.c.Notifications()
	for {
		select {
		case <-stop:
			return
		case n := <-ch:
			at := h.now()
			s.mu.RLock()
			st := s.byFS[n.FrontendSub]
			s.mu.RUnlock()
			if st == nil {
				continue // raced an unsubscribe
			}
			h.notifsRead.Add(1)
			if h.t.enabled() {
				h.tracePush(n, at)
			}
			st.nmu.Lock()
			st.notifs = append(st.notifs, notifStamp{n.LatestNS, at})
			st.nmu.Unlock()
			if st.pending.CompareAndSwap(false, true) {
				h.inflight.Add(1)
				h.jobs <- job{st: st, notifAt: at}
			}
		}
	}
}

// tracePush closes the push fan-out span (callback handler exit to frame
// read) and adds the frame's reconstructed wire size: 2 header bytes (4
// from 126 payload bytes up) plus the shared JSON form.
func (h *harness) tracePush(n broker.PushNotification, at time.Duration) {
	key := deliveryKey(n.BackendSub, n.LatestNS)
	h.t.mu.Lock()
	exit, ok := h.t.callbackExit[key]
	h.t.mu.Unlock()
	if ok {
		h.t.add(spanPushFanout, key, 0, exit, at)
	}
	payload := len(`{"type":"results","bs":"","latest_ns":}`) + len(n.BackendSub) + len(strconv.FormatInt(n.LatestNS, 10))
	if n.Traceparent != "" {
		payload += len(`,"tp":""`) + len(n.Traceparent)
	}
	header := 2
	if payload >= 126 {
		header = 4
	}
	h.wireEst.Add(int64(header + payload))
}

func (h *harness) worker(rec *recorder) {
	defer h.workers.Done()
	for j := range h.jobs {
		picked := h.now()
		rec.poolWait = append(rec.poolWait, timed{j.notifAt, picked - j.notifAt})
		if h.t.enabled() {
			h.t.add(spanPoolWait, j.st.fs, 0, j.notifAt, picked)
		}
		h.retrieve(j.st, rec, false)
		h.inflight.Add(-1)
	}
}

// retrieve performs one client.GetResults and records every row it
// returned.
func (h *harness) retrieve(st *subState, rec *recorder, catchup bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.pending.Store(false)
	if st.gone {
		return
	}
	start := h.now()
	items, err := st.sess.c.GetResults(st.fs)
	end := h.now()
	if err != nil {
		h.fail(fmt.Errorf("GetResults %s %s: %w", st.sess.name, st.fs, err))
	}
	h.getCalls.Add(1)
	h.itemsRet.Add(int64(len(items)))
	if !catchup {
		rec.retrieves = append(rec.retrieves, timed{start, end - start})
	}
	if h.t.enabled() {
		h.t.add(spanGetResults, st.fs, 0, start, end)
	}
	rows := 0
	var newest int64
	for _, it := range items {
		notifAt := st.notifFor(it.TimestampNS)
		if it.TimestampNS > newest {
			newest = it.TimestampNS
		}
		for _, row := range it.Rows {
			id, ok := row["pub"].(float64)
			if !ok {
				h.fail(fmt.Errorf("result row without a publication id: %v", row))
				continue
			}
			rec.obs = append(rec.obs, observation{Inst: st.inst, Order: st.order, Pub: int(id),
				TS: it.TimestampNS, At: end, NotifAt: notifAt, Catchup: catchup})
			st.order++
			rows++
		}
	}
	st.pruneNotifs(newest)
	h.delivered.Add(int64(rows))
}

// notifFor returns when the first push frame covering result timestamp ts
// was read, or noNotif.
func (st *subState) notifFor(ts int64) time.Duration {
	st.nmu.Lock()
	defer st.nmu.Unlock()
	for _, n := range st.notifs {
		if n.latestNS >= ts {
			return n.at
		}
	}
	return noNotif
}

func (st *subState) pruneNotifs(deliveredTS int64) {
	st.nmu.Lock()
	kept := st.notifs[:0]
	for _, n := range st.notifs {
		if n.latestNS > deliveredTS {
			kept = append(kept, n)
		}
	}
	st.notifs = kept
	st.nmu.Unlock()
}

// controlTarget implements trace.Target against the live stack, as
// liveplay.Player does, timing every call. Set-up uses it unpaced; the
// churn_miss window plays its control activities through it on the wall
// clock. Publish is used by the set-up prefix only: inside the window the
// publisher goroutine owns publications.
type controlTarget struct {
	h     *harness
	paced bool
}

var _ trace.Target = (*controlTarget)(nil)

func (t *controlTarget) AdvanceTo(at time.Duration) {
	if !t.paced {
		return
	}
	if wait := t.h.winStart + at - t.h.now(); wait > 0 {
		time.Sleep(wait)
	}
}

func (t *controlTarget) session(name string) (*sessionState, error) {
	i, ok := t.h.subscriberIx[name]
	if !ok {
		return nil, fmt.Errorf("unknown subscriber %q", name)
	}
	s := t.h.sessions[i]
	if s.c == nil {
		// First contact: the client discovers the broker through the BCS.
		c, err := client.New(client.Config{Subscriber: name, BCS: t.h.st.bcsClient, HTTPClient: t.h.st.subscriberHTTP})
		if err != nil {
			return nil, err
		}
		s.c = c
	}
	return s, nil
}

func (t *controlTarget) Login(name string) error {
	h := t.h
	s, err := t.session(name)
	if err != nil {
		return err
	}
	if s.online {
		return nil
	}
	start := h.now()
	if err := s.c.Listen(); err != nil {
		return err
	}
	h.ctlSample(&h.loginMS, h.now()-start)
	// Listen returns when the handshake is done, which can be before the
	// broker has attached the session; a push sent in between is dropped.
	for deadline := time.Now().Add(5 * time.Second); !h.st.broker.Online(name); {
		if time.Now().After(deadline) {
			return fmt.Errorf("session %s never attached", name)
		}
		time.Sleep(50 * time.Microsecond)
	}
	s.stopFwd, s.fwdDone = make(chan struct{}), make(chan struct{})
	go h.forward(s, s.stopFwd, s.fwdDone)
	if err := t.catchUp(s); err != nil {
		return err
	}
	s.online = true
	s.span = len(h.sessionSpans)
	h.sessionSpans = append(h.sessionSpans, sessionSpan{Subscriber: s.idx, Online: h.now(), Offline: forever})
	return nil
}

// catchUp retrieves every subscription of the subscriber once, as a client
// does after logging in.
func (t *controlTarget) catchUp(s *sessionState) error {
	s.mu.RLock()
	empty := len(s.byFS) == 0
	s.mu.RUnlock()
	if empty {
		return nil
	}
	subs, err := s.c.Subscriptions()
	if err != nil {
		return err
	}
	for _, fs := range subs {
		s.mu.RLock()
		st := s.byFS[fs]
		s.mu.RUnlock()
		if st != nil {
			t.h.retrieve(st, t.h.ctlRec, true)
		}
	}
	return nil
}

func (t *controlTarget) Logout(name string) error {
	h := t.h
	s, err := t.session(name)
	if err != nil || !s.online {
		return err
	}
	h.sessionSpans[s.span].Offline = h.now()
	s.online = false
	close(s.stopFwd)
	<-s.fwdDone
	s.c.Logout()
	return nil
}

func (t *controlTarget) Subscribe(name, channel string, params []any) error {
	h := t.h
	s, err := t.session(name)
	if err != nil {
		return err
	}
	sig, ok := h.p.sigOf(channel, params)
	if !ok {
		return fmt.Errorf("subscribe to unknown signature %s %v", channel, params)
	}
	start := h.now()
	fs, err := s.c.Subscribe(channel, params)
	end := h.now()
	if err != nil {
		return err
	}
	h.ctlSample(&h.subscribeMS, end-start)
	st := &subState{sess: s, fs: fs, sig: sig, inst: len(h.instances)}
	h.instances = append(h.instances, subInstance{Subscriber: s.idx, Sig: sig,
		SubStart: start, SubEnd: end, UnsubStart: forever, UnsubEnd: forever})
	s.mu.Lock()
	s.byFS[fs] = st
	s.bySig[sig] = st
	s.mu.Unlock()
	return nil
}

func (t *controlTarget) Unsubscribe(name, channel string, params []any) error {
	h := t.h
	s, err := t.session(name)
	if err != nil {
		return err
	}
	sig, _ := h.p.sigOf(channel, params)
	s.mu.Lock()
	st := s.bySig[sig]
	if st != nil {
		delete(s.bySig, sig)
		delete(s.byFS, st.fs)
	}
	s.mu.Unlock()
	if st == nil {
		return fmt.Errorf("unsubscribe of unknown subscription %s %s %v", name, channel, params)
	}
	// Holding the retrieval lock keeps a pool retrieval from running into
	// the vanishing subscription.
	st.mu.Lock()
	defer st.mu.Unlock()
	st.gone = true
	start := h.now()
	err = s.c.Unsubscribe(st.fs)
	end := h.now()
	h.instances[st.inst].UnsubStart, h.instances[st.inst].UnsubEnd = start, end
	h.ctlSample(&h.unsubscribeMS, end-start)
	return err
}

func (t *controlTarget) Publish(dataset string, data map[string]any) error {
	id, _ := data["pub"].(float64)
	_, _, err := t.h.publish(&pubEvent{IDs: []int{int(id)}, Records: []map[string]any{data}})
	return err
}

func (h *harness) ctlSample(dst *[]float64, d time.Duration) { *dst = append(*dst, ms(d)) }

// snap reads every counter the slices are built from.
func (h *harness) snap() snapshot {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	cs := h.st.cluster.Stats()
	bs := h.st.broker.Stats()
	ws := h.st.store.WALStats()
	ns := h.st.notifier.Stats()
	ps := h.st.broker.PushStats()
	leaders, coalesced := h.st.broker.Manager().FlightStats()
	s := snapshot{
		at: h.now(), cpu: cpuTime(),
		mallocs: m.Mallocs, totalAlloc: m.TotalAlloc, numGC: m.NumGC, pauseNS: m.PauseTotalNs,
		goroutines: runtime.NumGoroutine(),
		delivered:  h.delivered.Load(),

		fetchedBytes: cs.FetchedBytes.Value(),
		requests:     bs.Requests.Value(), hits: bs.Hits.Value(),
		hitBytes: bs.HitBytes.Value(), missBytes: bs.MissBytes.Value(),
		evictions: bs.Evictions.Value(), expirations: bs.Expirations.Value(),
		pushDelivered: bs.Delivered.Value(),
		ingested:      cs.Ingested.Value(), evalGroups: cs.EvalGroups.Value(), evalSubs: cs.EvalSubsServed.Value(),
		walAppends: ws.Appends.Value(), walRecords: ws.Records.Value(),
		whDelivered: ns.Delivered.Load(), whRedelivered: ns.Redelivered.Load(), whDropped: ns.Dropped.Load(),
		pushEnqueued: ps.Enqueued, pushCoalesced: ps.Coalesced, pushDropped: ps.Dropped,
		notifsRead: h.notifsRead.Load(), wireEst: h.wireEst.Load(),
		flightLeaders: leaders, flightCoalesced: coalesced,
		getCalls: h.getCalls.Load(), itemsReturned: h.itemsRet.Load(),
		walFileBytes: walBytes(h.st.dir),
	}
	if h.t != nil {
		s.roundTrips, s.wireBytes = h.t.roundTrips.Load(), h.t.wireBytes.Load()
		s.backendPulls = h.t.backendPulls.Load()
		s.resultsBytes, s.resultsFetches = h.t.resultsBytes.Load(), h.t.resultsFetchs.Load()
	}
	return s
}

// walBytes sums the sizes of the store's log segments.
func walBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
	}
	return n
}

// window is what the measured window leaves behind.
type window struct {
	snaps []snapshot // slices+1 boundaries
	// sent and acked bracket each event's ingest call (offsets from epoch).
	sent, acked []time.Duration
	heapAlloc   uint64 // live heap after two forced GCs at window end
}

// measure runs the window: the publisher on its schedule, the churn
// control activities on theirs, a snapshot at every slice boundary; then
// waits at most the delivery deadline for stragglers.
func (h *harness) measure() (*window, error) {
	cfg := h.cfg
	sliceLen := cfg.window / time.Duration(cfg.slices)
	w := &window{
		snaps: make([]snapshot, cfg.slices+1),
		sent:  make([]time.Duration, len(h.p.events)),
		acked: make([]time.Duration, len(h.p.events)),
	}
	// Garbage from set-up is collected before the clock starts.
	runtime.GC()
	h.winStart = h.now() + 20*time.Millisecond

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // sampler
		defer wg.Done()
		for k := 0; k <= cfg.slices; k++ {
			if wait := h.winStart + time.Duration(k)*sliceLen - h.now(); wait > 0 {
				time.Sleep(wait)
			}
			w.snaps[k] = h.snap()
			if h.t != nil {
				// A traced run records spans in its second half only; the
				// first half, seams installed but off, is the baseline the
				// tracing overhead is measured against.
				h.t.on.Store(k >= cfg.slices/2 && k < cfg.slices)
			}
		}
	}()
	go func() { // publisher
		defer wg.Done()
		for i := range h.p.events {
			ev := &h.p.events[i]
			if wait := h.winStart + ev.Due - h.now(); wait > 0 {
				time.Sleep(wait)
			}
			sent, acked, err := h.publish(ev)
			if err != nil {
				h.fail(fmt.Errorf("publish %d: %w", ev.IDs[0], err))
				return
			}
			w.sent[i], w.acked[i] = sent, acked
		}
	}()
	if h.p.control != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := trace.Play(h.p.control, &controlTarget{h: h, paced: true}); err != nil {
				h.fail(err)
			}
		}()
	}
	wg.Wait()

	if h.p.static != nil {
		var expect int64
		for _, evs := range [][]pubEvent{h.p.warm, h.p.events} {
			for i := range evs {
				expect += h.owed(&evs[i])
			}
		}
		_ = h.waitDelivered(expect, deliveryDeadline) // what is missing, the oracle reports
	} else {
		h.quiesce(deliveryDeadline)
	}
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	w.heapAlloc = m.HeapAlloc

	if h.p.static == nil {
		// Everything published to an offline subscriber is still owed:
		// log everyone in once more and catch up, so the oracle can see it.
		target := &controlTarget{h: h}
		for _, s := range h.sessions {
			if s.c == nil {
				continue
			}
			var err error
			if s.online {
				err = target.catchUp(s)
			} else {
				err = target.Login(s.name)
			}
			if err != nil {
				return nil, err
			}
		}
	}
	return w, h.err()
}

// controlProbe subscribes one session to fresh signatures and withdraws
// them again, so that every workload has client-side subscribe and
// unsubscribe timings and the cluster's subscribe handler is exercised.
func (h *harness) controlProbe(n int) error {
	s := h.sessions[0]
	if s.c == nil {
		return errors.New("control probe: session 0 never connected")
	}
	def := h.p.channels[0]
	for i := 0; i < n; i++ {
		params := make([]any, len(def.Params))
		for j, name := range def.Params {
			switch name {
			case "key", "etype":
				params[j] = fmt.Sprintf("probe-%03d", i)
			default:
				params[j] = float64(1000 + i)
			}
		}
		start := h.now()
		fs, err := s.c.Subscribe(def.Name, params)
		if err != nil {
			return err
		}
		h.ctlSample(&h.subscribeMS, h.now()-start)
		start = h.now()
		if err := s.c.Unsubscribe(fs); err != nil {
			return err
		}
		h.ctlSample(&h.unsubscribeMS, h.now()-start)
	}
	return nil
}

// tearDown stops the generator and the stack; it is safe on a harness
// whose set-up failed half way.
func (h *harness) tearDown() {
	for _, s := range h.sessions {
		if s.online {
			close(s.stopFwd)
			<-s.fwdDone
			s.online = false
		}
		if s.c != nil {
			s.c.Close()
		}
	}
	close(h.jobs)
	h.workers.Wait()
	h.st.stop()
}

// observations gathers what every goroutine of the generator recorded,
// rebased so the window starts at 0.
func (h *harness) observations() []observation {
	var out []observation
	for _, rec := range append([]*recorder{h.ctlRec}, h.recs...) {
		for _, o := range rec.obs {
			o.At -= h.winStart
			if o.NotifAt != noNotif {
				o.NotifAt -= h.winStart
			}
			out = append(out, o)
		}
	}
	return out
}

// oracleInput assembles the generator's own record of the run.
func (h *harness) oracleInput(w *window) oracleInput {
	in := oracleInput{FirstMeasured: h.p.firstMeasured, Observations: h.observations()}
	for i, ev := range h.p.events {
		for _, id := range ev.IDs {
			in.Pubs = append(in.Pubs, pubInfo{ID: id, Due: ev.Due,
				Sent: w.sent[i] - h.winStart, Acked: w.acked[i] - h.winStart, Sigs: h.p.pubSigs[id]})
		}
	}
	rebase := func(d time.Duration) time.Duration {
		if d == forever {
			return d
		}
		return d - h.winStart
	}
	for _, inst := range h.instances {
		inst.SubStart, inst.SubEnd = rebase(inst.SubStart), rebase(inst.SubEnd)
		inst.UnsubStart, inst.UnsubEnd = rebase(inst.UnsubStart), rebase(inst.UnsubEnd)
		in.Instances = append(in.Instances, inst)
	}
	for _, s := range h.sessionSpans {
		s.Online, s.Offline = rebase(s.Online), rebase(s.Offline)
		in.Sessions = append(in.Sessions, s)
	}
	return in
}

// rebased returns the pool's timed samples of one kind that fall inside the
// window (set-up and warm-up leave samples too), window-relative.
func (h *harness) rebased(pick func(*recorder) []timed) (at []time.Duration, msv []float64) {
	for _, rec := range h.recs {
		for _, s := range pick(rec) {
			if rel := s.at - h.winStart; rel >= 0 && rel < h.cfg.window {
				at = append(at, rel)
				msv = append(msv, ms(s.dur))
			}
		}
	}
	return at, msv
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
