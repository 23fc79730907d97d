package bdms

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"gobad/internal/httpx"
	"gobad/internal/obs"
	"gobad/internal/obs/span"
)

// Server exposes the cluster over the REST API the broker's
// "Asterix-facing" part consumes, plus the Prometheus exposition at
// /metrics. Mount Handler() on any net/http server.
type Server struct {
	cluster *Cluster
	store   *Store
	mux     *http.ServeMux
	obs     *httpx.Observer
	stages  *span.Stages
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithObserver supplies the observability bundle (registry, logger, HTTP
// metrics). Without it NewServer builds a silent default, so /metrics
// always works.
func WithObserver(o *httpx.Observer) ServerOption {
	return func(s *Server) { s.obs = o }
}

// WithStore exposes the segmented durability store's snapshot metrics
// (bad_snapshot_*) alongside the cluster's on /metrics.
func WithStore(st *Store) ServerOption {
	return func(s *Server) { s.store = st }
}

// WithStages shares an externally-built per-stage delivery histogram
// (e.g. the one the binary also hands the webhook notifier). Without it
// NewServer builds and registers its own.
func WithStages(st *span.Stages) ServerOption {
	return func(s *Server) { s.stages = st }
}

// NewServer wraps a cluster with its REST API.
func NewServer(cluster *Cluster, opts ...ServerOption) *Server {
	s := &Server{cluster: cluster, mux: http.NewServeMux()}
	for _, opt := range opts {
		opt(s)
	}
	if s.obs == nil {
		s.obs = httpx.NewObserver("badcluster", nil)
	}
	if s.stages == nil {
		s.stages = span.NewStages(span.DefaultSlowThreshold, s.obs.Logger)
	}
	s.obs.Registry.MustRegister(s.stages.Histogram())
	cluster.SetTracing(s.obs.Traces, s.stages)
	cluster.SetLogger(s.obs.Logger)
	st := cluster.Stats()
	s.obs.Registry.MustRegister(
		cluster.evalErrors,
		obs.CounterFunc("bad_cluster_ingested_total", "Records ingested into datasets.", st.Ingested.Value),
		obs.CounterFunc("bad_cluster_results_produced_total", "Result objects produced by channel executions.", st.ResultsProduced.Value),
		obs.CounterFunc("bad_cluster_result_bytes_total", "Bytes of result objects produced.", st.ResultBytes.Value),
		obs.CounterFunc("bad_cluster_notifications_total", "Notifications pushed to broker callbacks.", st.Notifications.Value),
		obs.CounterFunc("bad_cluster_fetched_bytes_total", "Bytes served to broker result fetches.", st.FetchedBytes.Value),
		obs.CounterFunc("bad_cluster_ingest_batches_total", "Batch ingest requests accepted.", st.IngestBatches.Value),
		obs.CounterFunc("bad_cluster_eval_groups_total", "Channel evaluations executed (one per parameter-signature group per batch).", st.EvalGroups.Value),
		obs.CounterFunc("bad_cluster_eval_subs_served_total", "Subscriptions served by group evaluations.", st.EvalSubsServed.Value),
		obs.GaugeFunc("bad_cluster_eval_shared_ratio", "Subscriptions served per channel evaluation (shared-evaluation ratio).",
			func() float64 {
				groups := st.EvalGroups.Value()
				if groups == 0 {
					return 0
				}
				return st.EvalSubsServed.Value() / groups
			}),
		obs.GaugeFunc("bad_cluster_subscriptions", "Live backend subscriptions.",
			func() float64 { return float64(cluster.NumSubscriptions()) }),
		obs.GaugeFunc("bad_cluster_eval_groups", "Live evaluation groups (distinct channel × parameter signatures).",
			func() float64 { return float64(cluster.NumEvalGroups()) }),
		obs.GaugeFunc("bad_cluster_datasets", "Datasets defined on the cluster.",
			func() float64 { return float64(len(cluster.DatasetNames())) }),
	)
	if ws := cluster.WALStats(); ws != nil {
		s.obs.Registry.MustRegister(
			obs.CounterFunc("bad_wal_appends_total", "WAL append calls (a batch is one append).", ws.Appends.Value),
			obs.CounterFunc("bad_wal_records_total", "Records appended to the WAL.", ws.Records.Value),
			obs.CounterFunc("bad_wal_fsyncs_total", "WAL fsyncs (per-append under -wal-sync always, periodic otherwise).", ws.Fsyncs.Value),
			obs.CounterFunc("bad_wal_append_errors_total", "WAL appends that failed.", ws.AppendErrors.Value),
			obs.CounterFunc("bad_wal_torn_tail_total", "Torn final WAL records dropped during replay.", ws.TornTails.Value),
			obs.CounterFunc("bad_wal_replay_records_total", "WAL records applied during startup replay.", ws.ReplayRecords.Value),
			obs.CounterFunc("bad_wal_replay_seconds_total", "Time spent replaying the WAL at startup.", ws.ReplaySeconds.Value),
		)
	}
	if st := s.store; st != nil {
		ss := st.Stats()
		s.obs.Registry.MustRegister(
			obs.CounterFunc("bad_snapshot_writes_total", "Completed snapshot+compaction cycles.", ss.SnapshotWrites.Value),
			obs.CounterFunc("bad_snapshot_bytes_total", "Encoded snapshot bytes written.", ss.SnapshotBytes.Value),
			obs.CounterFunc("bad_snapshot_errors_total", "Failed compaction attempts.", ss.SnapshotErrors.Value),
			obs.CounterFunc("bad_snapshot_decode_errors_total", "Snapshot files skipped as undecodable during recovery.", ss.BadSnapshots.Value),
			obs.CounterFunc("bad_snapshot_segments_pruned_total", "WAL segments removed by compaction.", ss.SegmentsPruned.Value),
			obs.GaugeFunc("bad_snapshot_age_seconds", "Seconds since the last completed snapshot (-1 before the first).",
				func() float64 {
					if a := st.SnapshotAge(); a >= 0 {
						return a.Seconds()
					}
					return -1
				}),
		)
	}
	s.routes()
	return s
}

// Handler returns the HTTP handler serving the cluster API.
func (s *Server) Handler() http.Handler { return s.mux }

// Observer returns the server's observability bundle.
func (s *Server) Observer() *httpx.Observer { return s.obs }

// route registers one instrumented endpoint.
func (s *Server) route(method, pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(method+" "+pattern, s.obs.Wrap(pattern, h))
}

// routes registers every endpoint under its versioned /v1 path.
func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.obs.Wrap("/healthz", s.handleHealth))
	s.mux.Handle("GET /metrics", s.obs.MetricsHandler())
	s.mux.Handle("GET /v1/debug/traces", s.obs.Traces.Handler())
	s.route(http.MethodGet, "/v1/stats", s.handleStats)
	s.route(http.MethodPost, "/v1/datasets", s.handleCreateDataset)
	s.route(http.MethodGet, "/v1/datasets", s.handleListDatasets)
	s.route(http.MethodPost, "/v1/datasets/{name}/records", s.handleIngest)
	s.route(http.MethodPost, "/v1/datasets/{name}/records:batch", s.handleIngestBatch)
	s.route(http.MethodPost, "/v1/channels", s.handleDefineChannel)
	s.route(http.MethodGet, "/v1/channels", s.handleListChannels)
	s.route(http.MethodDelete, "/v1/channels/{name}", s.handleDeleteChannel)
	s.route(http.MethodPost, "/v1/query", s.handleQuery)
	s.route(http.MethodPost, "/v1/subscriptions", s.handleSubscribe)
	s.route(http.MethodDelete, "/v1/subscriptions/{id}", s.handleUnsubscribe)
	s.route(http.MethodGet, "/v1/subscriptions/{id}/results", s.handleResults)
	s.route(http.MethodGet, "/v1/subscriptions/{id}/latest", s.handleLatest)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	httpx.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// StatsResponse is the /v1/stats payload.
type StatsResponse struct {
	Ingested        float64 `json:"ingested"`
	IngestBatches   float64 `json:"ingest_batches"`
	ResultsProduced float64 `json:"results_produced"`
	ResultBytes     float64 `json:"result_bytes"`
	Notifications   float64 `json:"notifications"`
	FetchedBytes    float64 `json:"fetched_bytes"`
	EvalGroups      float64 `json:"eval_groups"`
	EvalSubsServed  float64 `json:"eval_subs_served"`
	Subscriptions   int     `json:"subscriptions"`
	NowNS           int64   `json:"now_ns"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.cluster.Stats()
	httpx.WriteJSON(w, http.StatusOK, StatsResponse{
		Ingested:        st.Ingested.Value(),
		IngestBatches:   st.IngestBatches.Value(),
		ResultsProduced: st.ResultsProduced.Value(),
		ResultBytes:     st.ResultBytes.Value(),
		Notifications:   st.Notifications.Value(),
		FetchedBytes:    st.FetchedBytes.Value(),
		EvalGroups:      st.EvalGroups.Value(),
		EvalSubsServed:  st.EvalSubsServed.Value(),
		Subscriptions:   s.cluster.NumSubscriptions(),
		NowNS:           int64(s.cluster.Now()),
	})
}

// CreateDatasetRequest is the POST /v1/datasets payload.
type CreateDatasetRequest struct {
	Name   string `json:"name"`
	Schema Schema `json:"schema"`
}

func (s *Server) handleCreateDataset(w http.ResponseWriter, r *http.Request) {
	var req CreateDatasetRequest
	if err := httpx.ReadJSON(r, &req); err != nil {
		httpx.WriteReadError(w, err)
		return
	}
	if err := s.cluster.CreateDataset(req.Name, req.Schema); err != nil {
		httpx.WriteError(w, http.StatusConflict, "%v", err)
		return
	}
	httpx.WriteJSON(w, http.StatusCreated, map[string]string{"name": req.Name})
}

func (s *Server) handleListDatasets(w http.ResponseWriter, _ *http.Request) {
	httpx.WriteJSON(w, http.StatusOK, map[string][]string{"datasets": s.cluster.DatasetNames()})
}

// IngestResponse is the record-ingest reply.
type IngestResponse struct {
	Seq        uint64 `json:"seq"`
	IngestedNS int64  `json:"ingested_ns"`
}

// handleIngest stores one record, read by readRecord: the stored record's
// strings share one string copy of the body (a batch's records one copy
// between them, in handleIngestBatch), which the dataset keeps as long as
// it keeps one of them.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	data, err := readRecord(r)
	if err != nil {
		httpx.WriteReadError(w, err)
		return
	}
	recs, out, err := s.cluster.ingest(r.Context(), name, []map[string]any{data}, false)
	if err != nil {
		httpx.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	answerCreated(w, IngestResponse{Seq: recs[0].Seq, IngestedNS: int64(recs[0].IngestedAt)})
	s.cluster.deliver(out)
}

// answerCreated writes v as a 201 with its length and flushes it, so the
// publisher has its answer before the publication's notifications leave —
// a push fan-out started first would land on it.
func answerCreated(w http.ResponseWriter, v any) {
	body, _ := json.Marshal(v) // numbers only: cannot fail
	body = append(body, '\n')
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	httpx.WriteJSONBody(w, http.StatusCreated, body)
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// BatchIngestRequest is the POST /v1/datasets/{name}/records:batch
// payload: an ordered list of publications stored atomically — one WAL
// flush, one evaluation pass per matching group over the whole batch.
type BatchIngestRequest struct {
	Records []map[string]any `json:"records"`
}

// BatchIngestResponse is the batch-ingest reply.
type BatchIngestResponse struct {
	// Seqs are the assigned sequence numbers, in request order.
	Seqs []uint64 `json:"seqs"`
	// IngestedNS is the shared ingest timestamp of the batch.
	IngestedNS int64 `json:"ingested_ns"`
}

func (s *Server) handleIngestBatch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	batch, err := readBatch(r)
	if err != nil {
		httpx.WriteReadError(w, err)
		return
	}
	recs, out, err := s.cluster.ingest(r.Context(), name, batch, true)
	if err != nil {
		httpx.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp := BatchIngestResponse{Seqs: make([]uint64, len(recs)), IngestedNS: int64(recs[0].IngestedAt)}
	for i, rec := range recs {
		resp.Seqs[i] = rec.Seq
	}
	answerCreated(w, resp)
	s.cluster.deliver(out)
}

func (s *Server) handleDefineChannel(w http.ResponseWriter, r *http.Request) {
	var def channelDefWire
	if err := httpx.ReadJSON(r, &def); err != nil {
		httpx.WriteReadError(w, err)
		return
	}
	if err := s.cluster.DefineChannel(def.toDef()); err != nil {
		httpx.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	httpx.WriteJSON(w, http.StatusCreated, map[string]string{"name": def.Name})
}

func (s *Server) handleListChannels(w http.ResponseWriter, _ *http.Request) {
	defs := s.cluster.Channels()
	wire := make([]channelDefWire, 0, len(defs))
	for _, d := range defs {
		wire = append(wire, toWire(d))
	}
	httpx.WriteJSON(w, http.StatusOK, map[string][]channelDefWire{"channels": wire})
}

// channelDefWire is ChannelDef with the period in seconds for JSON
// friendliness.
type channelDefWire struct {
	Name      string       `json:"name"`
	Params    []string     `json:"params"`
	Body      string       `json:"body"`
	PeriodSec float64      `json:"period_sec"`
	Enrich    []EnrichSpec `json:"enrich,omitempty"`
}

func (wdef channelDefWire) toDef() ChannelDef {
	return ChannelDef{
		Name:   wdef.Name,
		Params: wdef.Params,
		Body:   wdef.Body,
		Period: time.Duration(wdef.PeriodSec * float64(time.Second)),
		Enrich: wdef.Enrich,
	}
}

func toWire(d ChannelDef) channelDefWire {
	return channelDefWire{
		Name:      d.Name,
		Params:    d.Params,
		Body:      d.Body,
		PeriodSec: d.Period.Seconds(),
		Enrich:    d.Enrich,
	}
}

func (s *Server) handleDeleteChannel(w http.ResponseWriter, r *http.Request) {
	if err := s.cluster.DeleteChannel(r.PathValue("name")); err != nil {
		httpx.WriteError(w, http.StatusConflict, "%v", err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, nil)
}

// QueryRequest is an ad-hoc query submission.
type QueryRequest struct {
	Statement string         `json:"statement"`
	Params    map[string]any `json:"params,omitempty"`
}

// QueryResponse carries the result rows.
type QueryResponse struct {
	Rows []map[string]any `json:"rows"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if err := httpx.ReadJSON(r, &req); err != nil {
		httpx.WriteReadError(w, err)
		return
	}
	rows, err := s.cluster.Query(req.Statement, req.Params)
	if err != nil {
		httpx.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, QueryResponse{Rows: rows})
}

// SubscribeRequest creates a backend subscription.
type SubscribeRequest struct {
	Channel  string `json:"channel"`
	Params   []any  `json:"params"`
	Callback string `json:"callback"`
}

// SubscribeResponse returns the new subscription's ID.
type SubscribeResponse struct {
	SubscriptionID string `json:"subscription_id"`
}

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	var req SubscribeRequest
	if err := httpx.ReadJSON(r, &req); err != nil {
		httpx.WriteReadError(w, err)
		return
	}
	id, err := s.cluster.Subscribe(req.Channel, req.Params, req.Callback)
	if err != nil {
		httpx.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	httpx.WriteJSON(w, http.StatusCreated, SubscribeResponse{SubscriptionID: id})
}

func (s *Server) handleUnsubscribe(w http.ResponseWriter, r *http.Request) {
	if err := s.cluster.Unsubscribe(r.PathValue("id")); err != nil {
		httpx.WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, nil)
}

// ResultsResponse carries fetched result objects.
type ResultsResponse struct {
	Results []ResultObject `json:"results"`
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	q := r.URL.Query()
	from, err1 := strconv.ParseInt(q.Get("from_ns"), 10, 64)
	to, err2 := strconv.ParseInt(q.Get("to_ns"), 10, 64)
	if err1 != nil || err2 != nil {
		httpx.WriteError(w, http.StatusBadRequest, "from_ns and to_ns are required integers")
		return
	}
	inclusive := q.Get("inclusive") == "true"
	results, err := s.cluster.Results(id, time.Duration(from), time.Duration(to), inclusive)
	if err != nil {
		httpx.WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	// ResultsResponse{Results: results}, its rows spliced in.
	httpx.WriteJSONBody(w, http.StatusOK, appendResultsResponse(nil, results))
}

// LatestResponse carries a subscription's newest result timestamp.
type LatestResponse struct {
	LatestNS int64 `json:"latest_ns"`
}

func (s *Server) handleLatest(w http.ResponseWriter, r *http.Request) {
	ts, err := s.cluster.LatestTimestamp(r.PathValue("id"))
	if err != nil {
		httpx.WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, LatestResponse{LatestNS: int64(ts)})
}
