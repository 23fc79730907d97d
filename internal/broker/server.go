package broker

import (
	"context"
	"errors"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"gobad/internal/bdms"
	"gobad/internal/httpx"
	"gobad/internal/metrics"
	"gobad/internal/obs"
	"gobad/internal/obs/span"
	"gobad/internal/wsock"
)

// Server exposes the broker's two HTTP surfaces: the client-facing REST API
// (subscribe/unsubscribe/getresults/ack + WebSocket push) and the
// cluster-facing webhook callback, plus the Prometheus exposition at
// /metrics.
type Server struct {
	broker *Broker
	mux    *http.ServeMux
	obs    *httpx.Observer
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithObserver supplies the observability bundle (registry, logger, HTTP
// metrics). Without it NewServer builds a silent default, so /metrics
// always works.
func WithObserver(o *httpx.Observer) ServerOption {
	return func(s *Server) { s.obs = o }
}

// NewServer wraps a broker with its HTTP API.
func NewServer(b *Broker, opts ...ServerOption) *Server {
	s := &Server{broker: b, mux: http.NewServeMux()}
	for _, opt := range opts {
		opt(s)
	}
	if s.obs == nil {
		s.obs = httpx.NewObserver("badbroker", nil)
	}
	// Wire the delivery-path tracing: the broker records spans into the
	// observer's ring and feeds the per-stage delivery-latency histogram.
	stages := span.NewStages(span.DefaultSlowThreshold, s.obs.Logger)
	s.obs.Registry.MustRegister(stages.Histogram())
	b.SetTracing(s.obs.Traces, stages)
	// The broker's cache accounting and manager structure are part of this
	// server's exposition.
	s.obs.Registry.MustRegister(
		b.Stats().Collector(b.Now),
		b.Manager(),
		obs.GaugeFunc("bad_frontend_subscriptions", "Live frontend subscriptions.",
			func() float64 { return float64(b.NumFrontendSubs()) }),
		obs.GaugeFunc("bad_backend_subscriptions", "Deduplicated backend subscriptions.",
			func() float64 { return float64(b.NumBackendSubs()) }),
		obs.GaugeFunc("bad_online_subscribers", "Subscribers with a live WebSocket session.",
			func() float64 { return float64(b.sessions.count()) }),
		// Counters read their atomics directly; only the depth gauge pays
		// for the per-session queue sweep, so a scrape does one O(sessions)
		// pass instead of five.
		obs.CounterFunc("bad_push_enqueued_total", "Push markers accepted into session queues.",
			func() float64 { return float64(b.sessions.stats.enqueued.Load()) }),
		obs.CounterFunc("bad_push_coalesced_total", "Push markers merged latest-wins into an already-queued marker.",
			func() float64 { return float64(b.sessions.stats.coalesced.Load()) }),
		obs.CounterFunc("bad_push_dropped_total", "Oldest pending push markers evicted on session queue overflow.",
			func() float64 { return float64(b.sessions.stats.dropped.Load()) }),
		obs.CounterFunc("bad_push_failures_total", "Push notification encode errors and failed socket writes.",
			func() float64 { return float64(b.sessions.stats.failures.Load()) }),
		obs.GaugeFunc("bad_push_queue_depth", "Pending push markers across live sessions.",
			func() float64 { return float64(b.sessions.queueDepth()) }),
		// Failover pipeline: resume/backfill/drain counters plus the (client
		// side, empty here) reconnect-latency histogram.
		b.failover.Collector(),
		// Warm cache handoff: hit/miss on fresh backend subscriptions plus
		// snapshot intake accounting and the pending stash depth.
		obs.CounterFunc("bad_warmup_hits_total", "Fresh backend subscriptions seeded from a warm handoff.",
			func() float64 { return b.warmupStats.Hits.Value() }),
		obs.CounterFunc("bad_warmup_misses_total", "Fresh backend subscriptions that started cold.",
			func() float64 { return b.warmupStats.Misses.Value() }),
		obs.CounterFunc("bad_warmup_objects_total", "Cache objects restored from warm handoff entries.",
			func() float64 { return b.warmupStats.ObjectsLoaded.Value() }),
		obs.CounterFunc("bad_warmup_entries_applied_total", "Warm entries applied onto live subscriptions at intake.",
			func() float64 { return b.warmupStats.EntriesApplied.Value() }),
		obs.CounterFunc("bad_warmup_entries_stashed_total", "Warm entries parked for a future matching subscribe.",
			func() float64 { return b.warmupStats.EntriesStashed.Value() }),
		obs.CounterFunc("bad_warmup_entries_dropped_total", "Warm entries rejected (stale snapshot or stash budget).",
			func() float64 { return b.warmupStats.EntriesDropped.Value() }),
		obs.GaugeFunc("bad_warmup_stash_entries", "Warm entries awaiting a matching subscribe.",
			func() float64 { return float64(b.WarmStashSize()) }),
	)
	if b.FabricEnabled() {
		s.obs.Registry.MustRegister(b.fabric.peerLat)
	}
	s.routes()
	return s
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Observer returns the server's observability bundle.
func (s *Server) Observer() *httpx.Observer { return s.obs }

// route registers one instrumented endpoint.
func (s *Server) route(method, pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(method+" "+pattern, s.obs.Wrap(pattern, h))
}

// routes registers every endpoint under its versioned /v1 path. The
// WebSocket upgrade lives at /v1/ws.
func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.obs.Wrap("/healthz", s.handleHealth))
	s.mux.Handle("GET /metrics", s.obs.MetricsHandler())
	s.mux.Handle("GET /v1/debug/traces", s.obs.Traces.Handler())
	s.route(http.MethodPost, "/v1/subscriptions", s.handleSubscribe)
	s.route(http.MethodDelete, "/v1/subscriptions/{fs}", s.handleUnsubscribe)
	s.route(http.MethodGet, "/v1/subscriptions/{fs}/results", s.handleGetResults)
	s.route(http.MethodPost, "/v1/subscriptions/{fs}/ack", s.handleAck)
	s.route(http.MethodGet, "/v1/subscribers/{id}/subscriptions", s.handleListSubs)
	s.route(http.MethodGet, "/v1/stats", s.handleStats)
	s.route(http.MethodGet, "/v1/caches", s.handleCaches)
	s.route(http.MethodGet, "/v1/ws", s.handleWS)
	s.route(http.MethodPost, "/v1/callbacks/results", s.handleCallback)
	// Fabric peer protocol.
	s.route(http.MethodGet, "/v1/peer/results/{key}", s.handlePeerResults)
	s.route(http.MethodPost, "/v1/peer/warmup", s.handlePeerWarmup)
	// Versioned health: same handler, reachable under /v1 for fabric peers.
	s.mux.HandleFunc("GET /v1/healthz", s.obs.Wrap("/healthz", s.handleHealth))
}

// handleHealth reports liveness plus readiness: "warming" while the broker
// is still restoring warm state (BCS placement excludes it), "draining"
// during graceful shutdown, "ok" otherwise.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	switch {
	case s.broker.Draining():
		status = "draining"
	case s.broker.Warming():
		status = "warming"
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]string{
		"status": status, "broker": s.broker.ID(),
	})
}

// SubscribeRequest creates a frontend subscription. ResumeToken, when
// present, is the failover resume token (see FormatResumeToken): the newest
// result timestamp the subscriber already acknowledged on its previous
// broker. The broker backfills everything after it from the cluster's
// result dataset and re-arms live push (at-least-once; clients dedup by
// timestamp). A malformed or checksum-failing token rejects the request
// rather than resuming from a garbage offset.
type SubscribeRequest struct {
	Subscriber  string `json:"subscriber"`
	Channel     string `json:"channel"`
	Params      []any  `json:"params"`
	ResumeToken string `json:"resume_token,omitempty"`
}

// SubscribeResponse returns the frontend subscription ID plus the shared
// backend subscription it attaches to; WebSocket push notifications carry
// the latter, so clients key their routing on it. LatestNS is the
// subscription's initial acknowledged marker — the client seeds its resume
// token from it so a failover before the first delivery resumes correctly.
type SubscribeResponse struct {
	FrontendSub string `json:"fs"`
	BackendSub  string `json:"bs"`
	LatestNS    int64  `json:"latest_ns"`
}

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	var req SubscribeRequest
	if err := httpx.ReadJSON(r, &req); err != nil {
		httpx.WriteReadError(w, err)
		return
	}
	resume := NoResume
	if req.ResumeToken != "" {
		ts, err := ParseResumeToken(req.ResumeToken)
		if err != nil {
			httpx.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		resume = ts
	}
	fs, err := s.broker.SubscribeResume(r.Context(), req.Subscriber, req.Channel, req.Params, resume)
	if err != nil {
		if errors.Is(err, ErrDraining) {
			// 503 is marked retryable in the envelope: the client's
			// supervisor rediscovers a broker and retries there.
			httpx.WriteError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		httpx.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	bs, _ := s.broker.BackendSubID(req.Subscriber, fs)
	marker, _ := s.broker.Marker(req.Subscriber, fs)
	httpx.WriteJSON(w, http.StatusCreated, SubscribeResponse{
		FrontendSub: fs, BackendSub: bs, LatestNS: int64(marker),
	})
}

func (s *Server) handleUnsubscribe(w http.ResponseWriter, r *http.Request) {
	subscriber := r.URL.Query().Get("subscriber")
	if err := s.broker.Unsubscribe(subscriber, r.PathValue("fs")); err != nil {
		httpx.WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, nil)
}

// ResultsResponse carries retrieved results and the marker to acknowledge.
type ResultsResponse struct {
	Results  []ResultItem `json:"results"`
	LatestNS int64        `json:"latest_ns"`
	// Stale marks a degraded answer served from the cache alone after a
	// data-cluster failure; the marker is 0 and older results may follow
	// once the cluster recovers.
	Stale bool `json:"stale,omitempty"`
}

// handleGetResults is one retrieval: Algorithm 1's ACK for the previous
// one, when the request carries it as ack=<timestamp_ns>, then GETRESULTS
// over the (fts, bts] the ack left. A malformed ack is refused before
// anything is retrieved or consumed; an unknown subscription is 404 and a
// failed data-cluster fetch a retryable 502 (marker unchanged, the cached
// part not handed out), so a client never mistakes a cluster outage for a
// lost subscription.
func (s *Server) handleGetResults(w http.ResponseWriter, r *http.Request) {
	subscriber, _ := queryValue(r.URL.RawQuery, "subscriber")
	fs := r.PathValue("fs")
	if ack, ok := queryValue(r.URL.RawQuery, "ack"); ok {
		ts, err := strconv.ParseInt(ack, 10, 64)
		if err != nil || ts < 0 {
			httpx.WriteError(w, http.StatusBadRequest, "ack must be a non-negative timestamp in nanoseconds")
			return
		}
		if err := s.ack(r.Context(), subscriber, fs, ts); err != nil {
			httpx.WriteError(w, http.StatusNotFound, "%v", err)
			return
		}
	}
	ret, err := s.broker.RetrieveContext(r.Context(), subscriber, fs)
	switch {
	case errors.Is(err, errUnknownFrontendSub):
		httpx.WriteError(w, http.StatusNotFound, "%v", err)
	case err != nil:
		httpx.WriteError(w, http.StatusBadGateway, "%v", err)
	default:
		httpx.WriteJSONBody(w, http.StatusOK, appendResults(make([]byte, 0, resultsBodySize(ret)), ret))
	}
}

// queryValue is url.Values' Get and Has over a raw query, without building
// the map the results route would otherwise parse on every retrieval: the
// first value of key, and whether key is present. Pairs url.ParseQuery
// drops (a semicolon, a bad escape) are skipped the same way.
func queryValue(raw, key string) (string, bool) {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		k, err := url.QueryUnescape(k)
		if err != nil || k != key {
			continue
		}
		if v, err = url.QueryUnescape(v); err == nil {
			return v, true
		}
	}
	return "", false
}

// AckRequest advances a frontend subscription's marker.
type AckRequest struct {
	Subscriber  string `json:"subscriber"`
	TimestampNS int64  `json:"timestamp_ns"`
}

// handleAck is the explicit ACK route, for a caller that has no next
// retrieval to carry the marker on.
func (s *Server) handleAck(w http.ResponseWriter, r *http.Request) {
	var req AckRequest
	if err := httpx.ReadJSON(r, &req); err != nil {
		httpx.WriteReadError(w, err)
		return
	}
	if err := s.ack(r.Context(), req.Subscriber, r.PathValue("fs"), req.TimestampNS); err != nil {
		httpx.WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, nil)
}

// ack runs Broker.Ack under the delivery trace's closing span. The client
// forwards the push frame's traceparent, so broker.client_ack and the
// client_ack stage sample land in the delivery's trace whichever request
// carried the marker.
func (s *Server) ack(ctx context.Context, subscriber, fs string, ts int64) error {
	ctx, sp := s.obs.Traces.Start(ctx, "broker.client_ack")
	sp.SetAttr("subscriber", subscriber)
	start := time.Now()
	err := s.broker.Ack(subscriber, fs, time.Duration(ts))
	sp.SetError(err)
	sp.End()
	s.broker.stages.Observe(ctx, span.StageClientAck, span.OutcomeNone, time.Since(start))
	return err
}

func (s *Server) handleListSubs(w http.ResponseWriter, r *http.Request) {
	subs := s.broker.FrontendSubscriptions(r.PathValue("id"))
	httpx.WriteJSON(w, http.StatusOK, map[string][]string{"subscriptions": subs})
}

// StatsResponse is the broker's metrics snapshot plus table sizes.
type StatsResponse struct {
	Broker       string           `json:"broker"`
	Policy       string           `json:"policy"`
	BudgetBytes  int64            `json:"budget_bytes"`
	CachedBytes  int64            `json:"cached_bytes"`
	FrontendSubs int              `json:"frontend_subs"`
	BackendSubs  int              `json:"backend_subs"`
	Online       int              `json:"online_subscribers"`
	Metrics      metrics.Snapshot `json:"metrics"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	b := s.broker
	httpx.WriteJSON(w, http.StatusOK, StatsResponse{
		Broker:       b.ID(),
		Policy:       b.Manager().Policy().Name(),
		BudgetBytes:  b.Manager().Budget(),
		CachedBytes:  b.Manager().TotalSize(),
		FrontendSubs: b.NumFrontendSubs(),
		BackendSubs:  b.NumBackendSubs(),
		Online:       b.sessions.count(),
		Metrics:      b.Stats().SnapshotAt(b.Now()),
	})
}

func (s *Server) handleCaches(w http.ResponseWriter, _ *http.Request) {
	httpx.WriteJSON(w, http.StatusOK, map[string]any{"caches": s.broker.Manager().CacheInfos()})
}

// handleWS upgrades a subscriber's notification socket. The query parameter
// "subscriber" names the session. The connection is read-pumped so pings
// and client close frames are honored; incoming text messages are ignored.
func (s *Server) handleWS(w http.ResponseWriter, r *http.Request) {
	subscriber := r.URL.Query().Get("subscriber")
	if subscriber == "" {
		httpx.WriteError(w, http.StatusBadRequest, "subscriber query parameter required")
		return
	}
	if s.broker.Draining() {
		// Refuse before the upgrade: the retryable 503 sends the client back
		// to the BCS for a live broker.
		httpx.WriteError(w, http.StatusServiceUnavailable, "broker draining")
		return
	}
	// Attach before the 101: the session and its interest-index entries
	// exist before one byte of the response is written, so a client whose
	// dial returned is owed every publish from then on.
	conn, err := wsock.Hijack(w, r)
	if err != nil {
		return // Hijack already wrote the error
	}
	if !s.broker.AttachSession(subscriber, conn) {
		return // drain raced the handshake; attach answered 101 + migrate close
	}
	defer s.broker.DetachSession(subscriber, conn)
	if err := conn.Accept(); err != nil {
		return
	}
	for {
		if _, _, err := conn.ReadMessage(); err != nil {
			_ = conn.Close()
			return
		}
	}
}

// handleCallback is the webhook the data cluster invokes on new results:
// one envelope, answered 200 with the entries the broker could not take —
// not_found for an unknown subscription, internal for a failed cluster pull
// or cache put (marker unchanged) — so the notifier redelivers those alone
// and the range is retried. An envelope of one is answered the same way.
func (s *Server) handleCallback(w http.ResponseWriter, r *http.Request) {
	var p bdms.NotificationPayload
	if err := httpx.ReadJSON(r, &p); err != nil {
		httpx.WriteReadError(w, err)
		return
	}
	entries := p.Entries()
	var resp bdms.CallbackResponse
	for i, err := range s.broker.HandleEnvelopeContext(r.Context(), entries) {
		if err == nil {
			continue
		}
		code := httpx.CodeInternal
		if errors.Is(err, errUnknownBackendSub) {
			code = httpx.CodeNotFound
		}
		resp.Failed = append(resp.Failed, bdms.FailedEntry{SubscriptionID: entries[i].SubscriptionID, Code: code})
	}
	httpx.WriteJSON(w, http.StatusOK, resp)
}

// handlePeerResults answers a sibling broker's lookup for a fabric key,
// strictly from the local result cache (never a cluster fetch, so lookups
// cannot chain). The failure taxonomy rides the error envelope's code:
// peer_draining (503, retryable — the owner is shutting down and placement
// is about to move), peer_cold (404, not retryable — go to the cluster)
// and peer_loop (400, a chained lookup, refused outright). A dead owner
// needs no code: the caller sees the transport error.
func (s *Server) handlePeerResults(w http.ResponseWriter, r *http.Request) {
	if hop, _ := strconv.Atoi(r.Header.Get(bdms.PeerHopHeader)); hop > 1 {
		httpx.WriteErrorCode(w, http.StatusBadRequest, bdms.CodePeerLoop,
			"peer lookups must not chain (hop %d)", hop)
		return
	}
	if s.broker.Draining() {
		w.Header().Set("Retry-After", "1")
		httpx.WriteErrorCode(w, http.StatusServiceUnavailable, bdms.CodePeerDraining,
			"broker %s is draining", s.broker.ID())
		return
	}
	q := r.URL.Query()
	after, err1 := strconv.ParseInt(q.Get("after_ns"), 10, 64)
	before, err2 := strconv.ParseInt(q.Get("before_ns"), 10, 64)
	if err1 != nil || err2 != nil {
		httpx.WriteError(w, http.StatusBadRequest, "after_ns and before_ns are required integers")
		return
	}
	key := r.PathValue("key")
	resp, ok := s.broker.PeerResults(key,
		time.Duration(after), time.Duration(before), q.Get("inclusive") == "true")
	if !ok {
		httpx.WriteErrorCode(w, http.StatusNotFound, bdms.CodePeerCold,
			"broker %s cannot fully serve %s (%d, %d]", s.broker.ID(), key, after, before)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, resp)
}

// handlePeerWarmup ingests a draining predecessor's warm cache snapshot
// (fabric peer protocol). The body is size-capped; a draining receiver
// refuses — it is about to hand its own state off and must not absorb
// more. Stale snapshots are dropped inside InstallWarmup.
func (s *Server) handlePeerWarmup(w http.ResponseWriter, r *http.Request) {
	if s.broker.Draining() {
		w.Header().Set("Retry-After", "1")
		httpx.WriteErrorCode(w, http.StatusServiceUnavailable, bdms.CodePeerDraining,
			"broker %s is draining", s.broker.ID())
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, 2*DefaultWarmupMaxBytes)
	var snap bdms.CacheSnapshot
	if err := httpx.ReadJSON(r, &snap); err != nil {
		httpx.WriteReadError(w, err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, s.broker.InstallWarmup(r.Context(), snap))
}
