package broker

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
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
	"gobad/internal/wire"
	"gobad/internal/wsock"
)

// Server exposes the broker's two HTTP surfaces: the client-facing REST API
// (subscribe/unsubscribe/getresults + WebSocket push) and the
// cluster-facing webhook callback, plus the Prometheus exposition at
// /metrics.
type Server struct {
	broker *Broker
	mux    *http.ServeMux
	obs    *httpx.Observer
	// results instruments the retrievals socket frames carry, callbacks
	// the envelopes callback stream frames carry.
	results, callbacks *httpx.Route
}

const (
	resultsRoute  = "/v1/subscriptions/{fs}/results"
	callbackRoute = "/v1/callbacks/results"
)

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
	s.results = s.obs.Route(resultsRoute)
	s.callbacks = s.obs.Route(callbackRoute)
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
	s.obs.Registry.MustRegister(b.fabric.peerLat, b.fabric.peers.Collector())
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
	s.route(http.MethodGet, resultsRoute, s.handleGetResults)
	s.route(http.MethodGet, "/v1/subscribers/{id}/subscriptions", s.handleListSubs)
	s.route(http.MethodGet, "/v1/stats", s.handleStats)
	s.route(http.MethodGet, "/v1/caches", s.handleCaches)
	s.route(http.MethodGet, "/v1/ws", s.handleWS)
	s.route(http.MethodPost, callbackRoute, s.handleCallback)
	s.route(http.MethodGet, callbackRoute, s.handleCallbackStream)
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

// handleGetResults is one retrieval over HTTP, its ack in the query as
// ack=<timestamp_ns>, an absent one read as 0 (see Broker.RetrieveContext).
func (s *Server) handleGetResults(w http.ResponseWriter, r *http.Request) {
	subscriber, _ := queryValue(r.URL.RawQuery, "subscriber")
	var ack int64
	if raw, ok := queryValue(r.URL.RawQuery, "ack"); ok {
		var err error
		if ack, err = strconv.ParseInt(raw, 10, 64); err != nil {
			ack = -1 // malformed: refused like a negative one
		}
	}
	ret, err := s.broker.RetrieveContext(r.Context(), subscriber, r.PathValue("fs"), time.Duration(ack))
	if err != nil {
		httpx.WriteError(w, retrievalStatus(err), "%v", err)
		return
	}
	httpx.WriteJSONBody(w, http.StatusOK, appendResults(make([]byte, 0, resultsBodySize(ret)), ret))
}

// retrievalStatus is the status a retrieval is answered with, over HTTP or
// the notification socket alike: 400 for a negative ack, refused before
// anything is retrieved or consumed; 404 for an unknown subscription; a
// retryable 502 for a failed data-cluster fetch (marker unchanged, the
// cached part not handed out), so a client never mistakes a cluster outage
// for a lost subscription.
func retrievalStatus(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, errNegativeAck):
		return http.StatusBadRequest
	case errors.Is(err, errUnknownFrontendSub):
		return http.StatusNotFound
	}
	return http.StatusBadGateway
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
// "subscriber" names the session. The read loop honors pings and close
// frames and serves each message as a retrieval request of that subscriber
// (serveGet), one at a time, as a keep-alive connection serves its
// requests. A message over 64 KiB closes the socket.
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
	conn.SetMaxMessageSize(64 << 10) // a retrieval request is under 1 KiB
	if err := conn.Accept(); err != nil {
		return
	}
	for {
		_, msg, err := conn.ReadMessage()
		if err != nil {
			_ = conn.Close()
			return
		}
		// A failed reply drops the session as a failed push write does; a
		// socket the hub closed (replaced, migrated) is no failure.
		if err := s.serveGet(conn, subscriber, msg); err != nil {
			if !errors.Is(err, wsock.ErrClosed) {
				s.broker.sessions.stats.failures.Add(1)
				s.obs.Logger.Warn("results reply failed; dropping session",
					slog.String("subscriber", subscriber), slog.Any("error", err))
			}
			_ = conn.CloseWith(wsock.CloseGoingAway, "")
			return
		}
	}
}

// getRequest is a retrieval request on the notification socket: the results
// route's request as JSON, with an id the reply names as "re".
type getRequest struct {
	Get string `json:"get"`
	ID  int64  `json:"id"`
	Ack int64  `json:"ack"`
	TP  string `json:"tp"`
}

// AppendGetRequest appends the retrieval request frame a listening client
// sends on its notification socket, {"get":fs,"id":id,"ack":ack[,"tp":tp]}
// with "tp" left out when empty: the one writer of what serveGet decodes
// into a getRequest.
func AppendGetRequest(dst []byte, fs string, id, ack int64, tp string) []byte {
	dst = append(dst, `{"get":`...)
	dst = wire.AppendJSONString(dst, fs)
	dst = append(dst, `,"id":`...)
	dst = strconv.AppendInt(dst, id, 10)
	dst = append(dst, `,"ack":`...)
	dst = strconv.AppendInt(dst, ack, 10)
	if tp != "" {
		dst = append(dst, `,"tp":`...)
		dst = wire.AppendJSONString(dst, tp)
	}
	return append(dst, '}')
}

// serveGet answers one retrieval request from subscriber's socket as the
// results route would, under its span, series and access line (method WS):
// the body with "re" spliced in, else an error reply; 413 for a body over
// httpx.MaxBodyBytes, which the client could not read. The reply skips the
// session's marker ring (DESIGN §4.7).
func (s *Server) serveGet(conn *wsock.Conn, subscriber string, msg []byte) error {
	start := time.Now()
	s.obs.HTTP.Begin()
	defer s.obs.HTTP.End()
	fs, id, ack, tp, err := ParseGetRequest(msg)
	ctx, sp, _ := s.results.Begin(context.Background(), tp, "", "WS")
	sp.SetAttr("transport", "ws")
	ret, status := Retrieval{}, http.StatusBadRequest
	if err == nil {
		ret, err = s.broker.RetrieveContext(ctx, subscriber, fs, time.Duration(ack))
		status = retrievalStatus(err)
	}
	var reply []byte
	if err == nil {
		reply = appendResultsReply(make([]byte, 0, resultsBodySize(ret)+24), ret, id)
		if len(reply) > httpx.MaxBodyBytes {
			status, err = http.StatusRequestEntityTooLarge,
				fmt.Errorf("results reply of %d bytes exceeds the %d-byte limit", len(reply), httpx.MaxBodyBytes)
		}
	}
	if err != nil {
		reply = errorReply(id, status, err)
	}
	_ = conn.SetWriteDeadline(time.Now().Add(DefaultPushWriteTimeout))
	werr := conn.WriteMessage(wsock.OpText, reply)
	s.results.End(ctx, sp, "WS", "/v1/ws", status, int64(len(reply)), start)
	return werr
}

// handleCallback is the webhook the data cluster invokes on new results:
// one envelope, answered 200 with the entries the broker could not take
// (answerEnvelope). The answer offers the upgrade to a callback stream on
// the same route (bdms.OfferStream), which the notifier takes from its
// next envelope on.
func (s *Server) handleCallback(w http.ResponseWriter, r *http.Request) {
	entries, err := bdms.ReadCallback(r)
	if err != nil {
		httpx.WriteReadError(w, err)
		return
	}
	bdms.OfferStream(w.Header())
	httpx.WriteJSON(w, http.StatusOK, s.answerEnvelope(r.Context(), entries))
}

// answerEnvelope hands an envelope's entries to the broker and lists those
// it could not take — not_found for an unknown subscription, internal for a
// failed cluster pull or cache put (marker unchanged) — so the notifier
// redelivers those alone and the range is retried. An envelope of one is
// answered the same way.
func (s *Server) answerEnvelope(ctx context.Context, entries []bdms.NotificationPayload) bdms.CallbackResponse {
	var resp bdms.CallbackResponse
	for i, err := range s.broker.HandleEnvelopeContext(ctx, entries) {
		if err == nil {
			continue
		}
		code := httpx.CodeInternal
		if errors.Is(err, errUnknownBackendSub) {
			code = httpx.CodeNotFound
		}
		resp.Failed = append(resp.Failed, bdms.FailedEntry{SubscriptionID: entries[i].SubscriptionID, Code: code})
	}
	return resp
}

// handleCallbackStream upgrades the callback route to a callback stream:
// the notifier's envelopes arrive one frame at a time, each answered by one
// frame before the next is read (serveEnvelope). A frame that is no
// envelope closes the stream, which fails that envelope as a 400 fails a
// POST.
func (s *Server) handleCallbackStream(w http.ResponseWriter, r *http.Request) {
	conn, err := wsock.Hijack(w, r)
	if err != nil {
		return // Hijack already wrote the error
	}
	conn.SetMaxMessageSize(httpx.MaxBodyBytes)
	if err := conn.Accept(); err != nil {
		_ = conn.Close()
		return
	}
	for {
		_, msg, err := conn.ReadMessage()
		if err == nil {
			err = s.serveEnvelope(conn, msg)
		}
		if err != nil {
			_ = conn.Close()
			return
		}
	}
}

// serveEnvelope answers one envelope frame as handleCallback answers a
// POST, under its own span, series and access line (method WS), the
// answer naming the frame's id as "re".
func (s *Server) serveEnvelope(conn *wsock.Conn, msg []byte) error {
	start := time.Now()
	s.obs.HTTP.Begin()
	defer s.obs.HTTP.End()
	entries, id, tp, err := bdms.ParseEnvelopeFrame(msg)
	ctx, sp, _ := s.callbacks.Begin(context.Background(), tp, "", "WS")
	sp.SetAttr("transport", "ws")
	if err != nil {
		s.callbacks.End(ctx, sp, "WS", callbackRoute, http.StatusBadRequest, 0, start)
		return err
	}
	reply := bdms.AppendCallbackReply(make([]byte, 0, 32), s.answerEnvelope(ctx, entries), id)
	_ = conn.SetWriteDeadline(time.Now().Add(DefaultPushWriteTimeout))
	err = conn.WriteMessage(wsock.OpText, reply)
	s.callbacks.End(ctx, sp, "WS", callbackRoute, http.StatusOK, int64(len(reply)), start)
	return err
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
