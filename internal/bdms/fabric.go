package bdms

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"gobad/internal/httpx"
	"gobad/internal/obs"
)

// Fabric wire contracts: the typed client for the broker-to-broker peer
// lookup protocol (the BCS side — placement and ring — is bcs.Client). It
// lives in bdms — the wire-type package brokers already import — so broker,
// client and sim code all speak the same structs instead of ad-hoc
// map[string]any bodies.

// PeerHopHeader guards against lookup chains: a broker answering a peer
// request must serve only from its local cache, and the header makes the
// rule enforceable on the wire — any request arriving with a hop count is
// already a peer lookup, so forwarding it again is refused with
// CodePeerLoop.
const PeerHopHeader = "X-Bad-Peer-Hop"

// Peer failure taxonomy, carried in the standard error envelope's code
// field. The retryable flag follows the taxonomy: a draining owner will
// come back (somewhere), a cold owner simply doesn't have the range, and a
// loop is a caller bug.
const (
	// CodePeerDraining: the owner is shutting down gracefully; retryable
	// (placement is about to move).
	CodePeerDraining = "peer_draining"
	// CodePeerCold: the owner is healthy but does not hold the requested
	// range; not retryable — go to the cluster.
	CodePeerCold = "peer_cold"
	// CodePeerLoop: the request already carried a hop count; peers never
	// chain lookups. Not retryable.
	CodePeerLoop = "peer_loop"
)

// PeerResultsResponse is a sibling broker's answer to a peer lookup: the
// cached result objects for the fabric key in the requested interval.
// Complete guarantees the range has no evicted/expired holes and extends
// at least to the owner's LatestNS; callers must discard partial answers
// (the cluster is the fallback, not a merge).
type PeerResultsResponse struct {
	Results []ResultObject `json:"results"`
	// LatestNS is the newest result timestamp the owner knows for the
	// key (its backend-subscription high-water mark).
	LatestNS int64 `json:"latest_ns"`
	// Complete reports whether Results covers the requested interval
	// with no holes.
	Complete bool `json:"complete"`
}

// IsPeerCold reports whether err is a peer_cold answer: the owner is
// healthy but doesn't hold the range. Cold answers are not failures — the
// per-peer breaker must not count them.
func IsPeerCold(err error) bool {
	var se *httpx.StatusError
	return errors.As(err, &se) && se.Code == CodePeerCold
}

// IsPeerDraining reports whether err is a peer_draining answer: the owner
// is gracefully shutting down and placement is about to move.
func IsPeerDraining(err error) bool {
	var se *httpx.StatusError
	return errors.As(err, &se) && se.Code == CodePeerDraining
}

// PeerClient performs broker-to-broker peer lookups against whichever
// sibling owns a fabric key. Targets vary per call (ownership is per key),
// so lookups are circuit-broken per target (httpx.BreakerConfig defaults:
// five consecutive failures open a circuit for ten seconds), and the
// breakers are driven by hand: a peer_cold answer is a healthy "I don't
// have it" that must not open the circuit, while transport errors and
// server failures (a dead owner) must. While a target's circuit is open,
// lookups against it fail fast with httpx.ErrBreakerOpen and the caller
// falls through to the cluster.
type PeerClient struct {
	http *http.Client
	brks *httpx.BreakerSet
}

// NewPeerClient returns a peer-lookup client. A nil httpClient uses a
// 5s-timeout default — a peer lookup rides the miss path, so it must give
// up well before the subscriber's own retrieval deadline.
func NewPeerClient(httpClient *http.Client) *PeerClient {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 5 * time.Second}
	}
	return &PeerClient{http: httpClient, brks: httpx.NewBreakerSet(httpx.BreakerConfig{})}
}

// Collector exports the per-target breakers' series (bad_breaker_*, one
// target label per peer base URL).
func (c *PeerClient) Collector() obs.Collector { return c.brks.Collector() }

// Results asks the broker at baseURL — the HRW owner of fabricKey — for
// its cached results in (afterNS, beforeNS] (or the open interval when
// inclusive is false). It is a single shot: no retries, because the
// cluster fallback is always available and the miss path is latency-bound.
func (c *PeerClient) Results(ctx context.Context, baseURL, fabricKey string, afterNS, beforeNS int64, inclusive bool) (PeerResultsResponse, error) {
	var out PeerResultsResponse
	brk := c.brks.For(baseURL)
	if err := brk.Allow(); err != nil {
		return out, err
	}
	u := fmt.Sprintf("%s/v1/peer/results/%s?after_ns=%d&before_ns=%d&inclusive=%t",
		baseURL, url.PathEscape(fabricKey), afterNS, beforeNS, inclusive)
	hdr := http.Header{PeerHopHeader: []string{"1"}}
	_, _, err := httpx.DoJSONHeader(ctx, c.http, http.MethodGet, u, hdr, nil, &out)
	// peer_cold is a healthy answer; everything else (transport error,
	// draining, loop, 5xx) counts against the circuit.
	if IsPeerCold(err) {
		brk.Record(nil)
	} else {
		brk.Record(err)
	}
	return out, err
}

// --- warm cache handoff --------------------------------------------------

// CacheWarmEntry is the warm state of one backend subscription's result
// cache: the portable fabric key plus the (channel, params) identity so a
// successor that has not subscribed yet can still match a future
// subscribe, the backend timestamp high-water mark, and the cached
// objects oldest-first, as the records they arrived in (the receiver
// derives each one's fetch latency from its size).
type CacheWarmEntry struct {
	FabricKey string         `json:"fabric_key"`
	Channel   string         `json:"channel"`
	Params    []any          `json:"params"`
	BTSNS     int64          `json:"bts_ns"`
	Objects   []ResultObject `json:"objects"`
}

// CacheSnapshot is a broker's serialized warm cache: written to disk on
// graceful shutdown and shipped to the HRW successor via POST
// /v1/peer/warmup. TakenUnixNS is wall-clock so staleness filtering
// survives process restarts (broker-local clocks do not).
type CacheSnapshot struct {
	Version     int              `json:"version"`
	Broker      string           `json:"broker"`
	TakenUnixNS int64            `json:"taken_unix_ns"`
	Entries     []CacheWarmEntry `json:"entries"`
}

// CacheSnapshotVersion is the current CacheSnapshot wire version; intake
// drops a snapshot of any other version whole.
const CacheSnapshotVersion = 2

// WarmupResponse reports what the receiving broker did with a shipped
// snapshot: entries applied onto live backend subscriptions, entries
// stashed for future subscribes, and entries dropped (stale or over
// budget).
type WarmupResponse struct {
	Applied int `json:"applied"`
	Stashed int `json:"stashed"`
	Dropped int `json:"dropped"`
}

// Warmup ships a warm cache snapshot to the broker at baseURL (the HRW
// successor during a graceful drain). Single shot: a failed handoff only
// costs the successor cold-start fetches, never correctness.
func (c *PeerClient) Warmup(ctx context.Context, baseURL string, snap CacheSnapshot) (WarmupResponse, error) {
	var out WarmupResponse
	u := baseURL + "/v1/peer/warmup"
	hdr := http.Header{PeerHopHeader: []string{"1"}}
	_, _, err := httpx.DoJSONHeader(ctx, c.http, http.MethodPost, u, hdr, snap, &out)
	return out, err
}
