package bcs

import (
	"fmt"
	"net/http"
	"net/url"
	"time"

	"gobad/internal/httpx"
	"gobad/internal/obs"
)

// Server exposes the coordination service over REST, plus the Prometheus
// exposition at /metrics.
type Server struct {
	svc *Service
	mux *http.ServeMux
	obs *httpx.Observer
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithObserver supplies the observability bundle (registry, logger, HTTP
// metrics). Without it NewServer builds a silent default, so /metrics
// always works.
func WithObserver(o *httpx.Observer) ServerOption {
	return func(s *Server) { s.obs = o }
}

// NewServer wraps a Service with its REST API.
func NewServer(svc *Service, opts ...ServerOption) *Server {
	s := &Server{svc: svc, mux: http.NewServeMux()}
	for _, opt := range opts {
		opt(s)
	}
	if s.obs == nil {
		s.obs = httpx.NewObserver("badbcs", nil)
	}
	s.obs.Registry.MustRegister(
		obs.GaugeFunc("bad_bcs_brokers", "Brokers currently registered with the coordination service.",
			func() float64 { return float64(len(svc.Brokers())) }),
	)
	s.mux.HandleFunc("GET /healthz", s.obs.Wrap("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		httpx.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}))
	s.mux.Handle("GET /metrics", s.obs.MetricsHandler())
	s.mux.Handle("GET /v1/debug/traces", s.obs.Traces.Handler())
	s.route(http.MethodPost, "/v1/brokers", s.handleRegister)
	s.route(http.MethodPost, "/v1/brokers/{id}/heartbeat", s.handleHeartbeat)
	s.route(http.MethodDelete, "/v1/brokers/{id}", s.handleDeregister)
	s.route(http.MethodGet, "/v1/brokers", s.handleList)
	s.route(http.MethodPost, "/v1/placement", s.handlePlacement)
	s.route(http.MethodGet, "/v1/ring", s.handleRing)
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

// RegisterRequest is the broker registration payload.
type RegisterRequest struct {
	ID      string `json:"id"`
	Address string `json:"address"`
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := httpx.ReadJSON(r, &req); err != nil {
		httpx.WriteReadError(w, err)
		return
	}
	if err := s.svc.Register(req.ID, req.Address); err != nil {
		httpx.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	httpx.WriteJSON(w, http.StatusCreated, nil)
}

// HeartbeatRequest carries a broker's load report plus its readiness:
// Warming keeps a restarting broker registered without receiving placement.
// Epoch is the epoch of the ring view the broker holds (0: none yet).
type HeartbeatRequest struct {
	Load    int    `json:"load"`
	Warming bool   `json:"warming,omitempty"`
	Epoch   uint64 `json:"epoch,omitempty"`
}

// handleHeartbeat answers with the current ring view when the broker's
// epoch differs from it, and with null otherwise: the heartbeat is the one
// exchange that keeps a broker both alive and in the fabric, and in the
// steady state it carries no view.
func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := httpx.ReadJSON(r, &req); err != nil {
		httpx.WriteReadError(w, err)
		return
	}
	if err := s.svc.Heartbeat(r.PathValue("id"), req.Load, req.Warming); err != nil {
		httpx.WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	if view := s.svc.Ring(); view.Epoch != req.Epoch {
		httpx.WriteJSON(w, http.StatusOK, view)
		return
	}
	httpx.WriteJSONBody(w, http.StatusOK, []byte("null\n"))
}

func (s *Server) handleDeregister(w http.ResponseWriter, r *http.Request) {
	if err := s.svc.Deregister(r.PathValue("id")); err != nil {
		httpx.WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, nil)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	httpx.WriteJSON(w, http.StatusOK, map[string][]BrokerInfo{"brokers": s.svc.Brokers()})
}

// PlacementRequest asks for the broker owning a subscriber key. PrevBroker
// is the broker the caller last held (empty for a fresh arrival) so the
// response can say whether placement moved.
type PlacementRequest struct {
	SubscriberKey string `json:"subscriber_key"`
	PrevBroker    string `json:"prev_broker,omitempty"`
}

// PlacementResponse is the placement decision: the owning broker, the
// membership epoch the decision was taken at, and whether it differs from
// the caller's previous broker.
type PlacementResponse struct {
	Broker BrokerInfo `json:"broker"`
	Epoch  uint64     `json:"epoch"`
	Moved  bool       `json:"moved"`
}

func (s *Server) handlePlacement(w http.ResponseWriter, r *http.Request) {
	var req PlacementRequest
	if err := httpx.ReadJSON(r, &req); err != nil {
		httpx.WriteReadError(w, err)
		return
	}
	b, epoch, err := s.svc.Place(req.SubscriberKey)
	if err != nil {
		httpx.WriteError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, PlacementResponse{
		Broker: b, Epoch: epoch,
		Moved: req.PrevBroker != "" && req.PrevBroker != b.ID,
	})
}

// handleRing serves the membership view with the epoch as a strong ETag,
// so an operator's poll pays a 304 instead of a body when nothing changed.
// Brokers do not poll it: their heartbeat answer carries the view.
func (s *Server) handleRing(w http.ResponseWriter, r *http.Request) {
	view := s.svc.Ring()
	etag := fmt.Sprintf(`"%d"`, view.Epoch)
	w.Header().Set("ETag", etag)
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, view)
}

// Client is the Go client for the BCS REST API, used by brokers (register,
// heartbeat) and subscribers (placement).
type Client struct {
	base string
	http *http.Client
}

// NewClient returns a BCS client for baseURL.
func NewClient(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 10 * time.Second}
	}
	return &Client{base: baseURL, http: httpClient}
}

// Register announces a broker.
func (c *Client) Register(id, address string) error {
	return httpx.DoJSON(c.http, http.MethodPost, c.base+"/v1/brokers",
		RegisterRequest{ID: id, Address: address}, nil)
}

// Heartbeat refreshes a broker's liveness, load and readiness (warming
// brokers stay registered but receive no placement) and reports the epoch
// of the ring view the broker holds. When the BCS's ring has another epoch
// the answer carries it: changed is true and view is the current ring.
func (c *Client) Heartbeat(id string, hb HeartbeatRequest) (view RingView, changed bool, err error) {
	var out *RingView
	err = httpx.DoJSON(c.http, http.MethodPost,
		c.base+"/v1/brokers/"+url.PathEscape(id)+"/heartbeat", hb, &out)
	if err != nil || out == nil {
		return RingView{}, false, err
	}
	return *out, true, nil
}

// Deregister removes a broker.
func (c *Client) Deregister(id string) error {
	return httpx.DoJSON(c.http, http.MethodDelete, c.base+"/v1/brokers/"+url.PathEscape(id), nil, nil)
}

// Brokers lists registered brokers.
func (c *Client) Brokers() ([]BrokerInfo, error) {
	var out map[string][]BrokerInfo
	if err := httpx.DoJSON(c.http, http.MethodGet, c.base+"/v1/brokers", nil, &out); err != nil {
		return nil, err
	}
	return out["brokers"], nil
}

// Place asks for the broker owning subscriberKey. prevBroker (may be
// empty) is the broker the caller last held; the response reports whether
// placement moved away from it.
func (c *Client) Place(subscriberKey, prevBroker string) (PlacementResponse, error) {
	var out PlacementResponse
	err := httpx.DoJSON(c.http, http.MethodPost, c.base+"/v1/placement",
		PlacementRequest{SubscriberKey: subscriberKey, PrevBroker: prevBroker}, &out)
	return out, err
}

// Ring fetches the current membership view.
func (c *Client) Ring() (RingView, error) {
	var out RingView
	err := httpx.DoJSON(c.http, http.MethodGet, c.base+"/v1/ring", nil, &out)
	return out, err
}
