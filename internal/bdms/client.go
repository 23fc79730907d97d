package bdms

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"gobad/internal/httpx"
	"gobad/internal/wire"
)

// Client is the Go client for the cluster REST API; the broker's
// "Asterix-facing" half is built on it. It speaks the versioned /v1 routes
// and decodes the unified error envelope. Every method has a Context
// variant; the plain form uses a background context.
//
// A Client is resilience-aware when configured with WithClientRetryer
// and/or WithClientBreaker: every call then runs retry-around-breaker, so
// attempts shed by an open circuit fail fast instead of burning the retry
// budget. Retries distinguish idempotency — GETs and DELETEs retry any
// transient failure, while mutating POSTs retry only when the server's
// error envelope explicitly vouches the request is safe to repeat.
type Client struct {
	base string
	http *http.Client

	retry        *httpx.Retryer // idempotent requests
	retryNonIdem *httpx.Retryer // mutating requests: envelope-vouched only
	breaker      *httpx.Breaker
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithClientRetryer enables retries with r's schedule. Idempotent requests
// use r as configured (default classification unless r.Classify is set);
// non-idempotent requests share the schedule and stats but retry only on
// an envelope-vouched retryable error.
func WithClientRetryer(r *httpx.Retryer) ClientOption {
	return func(c *Client) {
		if r == nil {
			return
		}
		c.retry = r
		c.retryNonIdem = &httpx.Retryer{
			MaxAttempts: r.MaxAttempts,
			BaseDelay:   r.BaseDelay,
			MaxDelay:    r.MaxDelay,
			Rand:        r.Rand,
			Sleep:       r.Sleep,
			Classify:    httpx.RetryableEnvelopeOnly,
			Stats:       r.Stats,
		}
	}
}

// WithClientBreaker guards every call with b; while open, calls fail fast
// with httpx.ErrBreakerOpen.
func WithClientBreaker(b *httpx.Breaker) ClientOption {
	return func(c *Client) { c.breaker = b }
}

// NewClient returns a client for the cluster at baseURL (e.g.
// "http://127.0.0.1:19002"). A nil httpClient uses a 30s-timeout default.
func NewClient(baseURL string, httpClient *http.Client, opts ...ClientOption) *Client {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 30 * time.Second}
	}
	c := &Client{base: baseURL, http: httpClient}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// do runs one API call through the configured resilience stack: the
// breaker guards each individual attempt, the retryer decides whether a
// failed attempt gets another.
func (c *Client) do(ctx context.Context, method, url string, in, out any, idempotent bool) error {
	call := func(ctx context.Context) error {
		return httpx.DoJSONContext(ctx, c.http, method, url, in, out)
	}
	op := call
	if c.breaker != nil {
		op = func(ctx context.Context) error { return c.breaker.Do(ctx, call) }
	}
	r := c.retry
	if !idempotent {
		r = c.retryNonIdem
	}
	if r == nil {
		return op(ctx)
	}
	return r.Do(ctx, op)
}

// CreateDataset registers a dataset.
func (c *Client) CreateDataset(name string, schema Schema) error {
	return c.CreateDatasetContext(context.Background(), name, schema)
}

// CreateDatasetContext is CreateDataset bound to ctx.
func (c *Client) CreateDatasetContext(ctx context.Context, name string, schema Schema) error {
	return c.do(ctx, http.MethodPost, c.base+"/v1/datasets",
		CreateDatasetRequest{Name: name, Schema: schema}, nil, false)
}

// Datasets lists the cluster's dataset names.
func (c *Client) Datasets() ([]string, error) {
	return c.DatasetsContext(context.Background())
}

// DatasetsContext is Datasets bound to ctx.
func (c *Client) DatasetsContext(ctx context.Context) ([]string, error) {
	var out map[string][]string
	if err := c.do(ctx, http.MethodGet, c.base+"/v1/datasets", nil, &out, true); err != nil {
		return nil, err
	}
	return out["datasets"], nil
}

// Ingest stores one publication in a dataset.
func (c *Client) Ingest(dataset string, data map[string]any) (IngestResponse, error) {
	return c.IngestContext(context.Background(), dataset, data)
}

// IngestContext is Ingest bound to ctx.
func (c *Client) IngestContext(ctx context.Context, dataset string, data map[string]any) (IngestResponse, error) {
	var out IngestResponse
	err := c.do(ctx, http.MethodPost,
		fmt.Sprintf("%s/v1/datasets/%s/records", c.base, url.PathEscape(dataset)), requestBody(data, data), &out, false)
	return out, err
}

// IngestBatch stores a batch of publications in one request; the cluster
// validates the batch atomically, appends it to the WAL with one flush and
// evaluates continuous channels once per matching group over the batch.
func (c *Client) IngestBatch(dataset string, records []map[string]any) (BatchIngestResponse, error) {
	return c.IngestBatchContext(context.Background(), dataset, records)
}

// IngestBatchContext is IngestBatch bound to ctx.
func (c *Client) IngestBatchContext(ctx context.Context, dataset string, records []map[string]any) (BatchIngestResponse, error) {
	var out BatchIngestResponse
	err := c.do(ctx, http.MethodPost,
		fmt.Sprintf("%s/v1/datasets/%s/records:batch", c.base, url.PathEscape(dataset)),
		requestBody(map[string]any{"records": records}, BatchIngestRequest{Records: records}), &out, false)
	return out, err
}

// requestBody is what an ingest call hands DoJSONHeader for the request v:
// its encoding, as the json.RawMessage DoJSONHeader sends unchanged, made
// from body, v's JSON-model twin (the same bytes), without reflection; or,
// when v cannot be encoded, v itself, for DoJSONHeader to fail on as it
// always has.
func requestBody(body, v any) any {
	if b, err := wire.Marshal(body); err == nil {
		return json.RawMessage(b)
	}
	return v
}

// DefineChannel registers a channel.
func (c *Client) DefineChannel(def ChannelDef) error {
	return c.DefineChannelContext(context.Background(), def)
}

// DefineChannelContext is DefineChannel bound to ctx.
func (c *Client) DefineChannelContext(ctx context.Context, def ChannelDef) error {
	return c.do(ctx, http.MethodPost, c.base+"/v1/channels", toWire(def), nil, false)
}

// Channels lists registered channel definitions.
func (c *Client) Channels() ([]ChannelDef, error) {
	return c.ChannelsContext(context.Background())
}

// ChannelsContext is Channels bound to ctx.
func (c *Client) ChannelsContext(ctx context.Context) ([]ChannelDef, error) {
	var out map[string][]channelDefWire
	if err := c.do(ctx, http.MethodGet, c.base+"/v1/channels", nil, &out, true); err != nil {
		return nil, err
	}
	defs := make([]ChannelDef, 0, len(out["channels"]))
	for _, wdef := range out["channels"] {
		defs = append(defs, wdef.toDef())
	}
	return defs, nil
}

// DeleteChannel removes a channel definition.
func (c *Client) DeleteChannel(name string) error {
	return c.DeleteChannelContext(context.Background(), name)
}

// DeleteChannelContext is DeleteChannel bound to ctx.
func (c *Client) DeleteChannelContext(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete,
		c.base+"/v1/channels/"+url.PathEscape(name), nil, nil, true)
}

// Query runs an ad-hoc AQL statement over a dataset.
func (c *Client) Query(statement string, params map[string]any) ([]map[string]any, error) {
	return c.QueryContext(context.Background(), statement, params)
}

// QueryContext is Query bound to ctx.
func (c *Client) QueryContext(ctx context.Context, statement string, params map[string]any) ([]map[string]any, error) {
	var out QueryResponse
	err := c.do(ctx, http.MethodPost, c.base+"/v1/query",
		QueryRequest{Statement: statement, Params: params}, &out, true)
	if err != nil {
		return nil, err
	}
	return out.Rows, nil
}

// Subscribe creates a backend subscription and returns its ID.
func (c *Client) Subscribe(channel string, params []any, callback string) (string, error) {
	return c.SubscribeContext(context.Background(), channel, params, callback)
}

// SubscribeContext is Subscribe bound to ctx.
func (c *Client) SubscribeContext(ctx context.Context, channel string, params []any, callback string) (string, error) {
	var out SubscribeResponse
	err := c.do(ctx, http.MethodPost, c.base+"/v1/subscriptions",
		SubscribeRequest{Channel: channel, Params: params, Callback: callback}, &out, false)
	return out.SubscriptionID, err
}

// Unsubscribe tears a backend subscription down.
func (c *Client) Unsubscribe(subID string) error {
	return c.UnsubscribeContext(context.Background(), subID)
}

// UnsubscribeContext is Unsubscribe bound to ctx.
func (c *Client) UnsubscribeContext(ctx context.Context, subID string) error {
	return c.do(ctx, http.MethodDelete,
		c.base+"/v1/subscriptions/"+url.PathEscape(subID), nil, nil, true)
}

// Results fetches a subscription's result objects in (from, to) or
// (from, to] when inclusiveTo is set.
func (c *Client) Results(subID string, from, to time.Duration, inclusiveTo bool) ([]ResultObject, error) {
	return c.ResultsContext(context.Background(), subID, from, to, inclusiveTo)
}

// ResultsContext is Results bound to ctx, so broker miss fetches and
// notification pulls can carry deadlines.
func (c *Client) ResultsContext(ctx context.Context, subID string, from, to time.Duration, inclusiveTo bool) ([]ResultObject, error) {
	var out ResultsResponse
	u := fmt.Sprintf("%s/v1/subscriptions/%s/results?from_ns=%d&to_ns=%d&inclusive=%t",
		c.base, url.PathEscape(subID), int64(from), int64(to), inclusiveTo)
	if err := c.do(ctx, http.MethodGet, u, nil, &resultsReply{&out}, true); err != nil {
		return nil, err
	}
	return out.Results, nil
}

// ResultsBatchContext fetches several result ranges in one round trip (at
// most MaxResultRanges); the answers are parallel to ranges. The POST only
// reads, so it retries like the GET it batches.
func (c *Client) ResultsBatchContext(ctx context.Context, ranges []ResultRange) ([]RangeResults, error) {
	var out ResultsBatchResponse
	if err := c.do(ctx, http.MethodPost, c.base+"/v1/results:batch",
		ResultsBatchRequest{Ranges: ranges}, &resultsBatchReply{&out}, true); err != nil {
		return nil, err
	}
	if len(out.Ranges) != len(ranges) {
		return nil, fmt.Errorf("bdms: results batch answered %d of %d ranges", len(out.Ranges), len(ranges))
	}
	return out.Ranges, nil
}

// LatestTimestamp returns the newest result timestamp of a subscription.
func (c *Client) LatestTimestamp(subID string) (time.Duration, error) {
	return c.LatestTimestampContext(context.Background(), subID)
}

// LatestTimestampContext is LatestTimestamp bound to ctx.
func (c *Client) LatestTimestampContext(ctx context.Context, subID string) (time.Duration, error) {
	var out LatestResponse
	u := c.base + "/v1/subscriptions/" + url.PathEscape(subID) + "/latest"
	if err := c.do(ctx, http.MethodGet, u, nil, &out, true); err != nil {
		return 0, err
	}
	return time.Duration(out.LatestNS), nil
}

// Stats fetches the cluster's counters.
func (c *Client) Stats() (StatsResponse, error) {
	return c.StatsContext(context.Background())
}

// StatsContext is Stats bound to ctx.
func (c *Client) StatsContext(ctx context.Context) (StatsResponse, error) {
	var out StatsResponse
	err := c.do(ctx, http.MethodGet, c.base+"/v1/stats", nil, &out, true)
	return out, err
}
