// Package client implements the BAD client (subscriber) library: it asks
// the Broker Coordination Service for a broker, subscribes to parameterized
// channels through it, listens for push notifications over a WebSocket and
// retrieves channel results, each retrieval acknowledging the one before
// it. Retrieval latencies are recorded so trace drivers can report the
// paper's subscriber-latency metric.
package client

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"gobad/internal/bcs"
	"gobad/internal/broker"
	"gobad/internal/httpx"
	"gobad/internal/obs"
	"gobad/internal/obs/span"
	"gobad/internal/wsock"
)

// Config configures a Client.
type Config struct {
	// Subscriber is this client's identity (required).
	Subscriber string
	// BrokerURL connects directly to a broker. Leave empty to discover
	// one through BCS.
	BrokerURL string
	// BCS discovers a broker when BrokerURL is empty.
	BCS *bcs.Client
	// HTTPClient overrides the HTTP client (tests).
	HTTPClient *http.Client
	// OnConnState observes connection-state transitions (Connected,
	// Reconnecting, Migrated) with the broker URL involved. Called from
	// the supervisor goroutine; must not block.
	OnConnState func(state ConnState, brokerURL string)
	// Retry shapes the supervisor's reconnect backoff; only BaseDelay,
	// MaxDelay, MaxAttempts (>0 bounds the attempts per outage), Rand,
	// Sleep and Stats are consulted. nil uses 100ms base, 5s cap,
	// unbounded attempts.
	Retry *httpx.Retryer
	// Traces records the client's retrieval spans. Optional: nil still
	// propagates trace context (the push frame's traceparent rides the
	// GetResults request), it just records nothing locally.
	Traces *span.Recorder
}

// subState is the client-side record of one subscription: enough to
// re-establish it on any broker (channel + params + resume token) and to
// dedup redelivered results. The app-visible subscription ID is the first
// frontend subscription ID a broker returned; fs tracks the current
// broker's ID for it, so failover never invalidates application handles.
type subState struct {
	channel string
	params  []any
	fs      string
	// lastTS is the delivered watermark: the newest result timestamp
	// handed to the application from a complete (non-stale) retrieval.
	// It is the ack the next retrieval carries, the resume token after
	// failover, and the dedup bound for at-least-once redelivery.
	lastTS time.Duration
	// lastTrace is the trace context the most recent push frame carried;
	// the next GetResults joins it, completing the end-to-end delivery
	// trace.
	lastTrace obs.SpanContext
}

// Client is a connected BAD subscriber.
type Client struct {
	subscriber string
	brokerURL  string
	bcs        *bcs.Client
	http       *http.Client

	// brokerID is the ID of the broker the last placement handed out;
	// it rides subsequent placement requests as prev_broker so the BCS
	// can report when HRW placement moved this subscriber.
	brokerID string

	mu     sync.Mutex
	ws     *wsock.Conn
	closed bool
	// bsToFS routes push notifications: the WebSocket wire form carries
	// the shared backend subscription ID, which maps back to this
	// subscriber's (app-visible) frontend subscription.
	bsToFS map[string]string
	fsToBS map[string]string
	// subs tracks subscription state by app-visible frontend sub ID.
	subs map[string]*subState

	// supervision state: cancel and supDone are set while a supervisor
	// goroutine (Listen) is running.
	onState func(ConnState, string)
	retry   *httpx.Retryer
	cancel  context.CancelFunc
	supDone chan struct{}

	notifications chan broker.PushNotification
	// replies holds the GetResults calls waiting for a reply on the
	// notification socket, by request id (guarded by mu).
	replies map[int64]pendingReply
	lastID  int64

	// failover tallies supervised reconnects and their latency.
	failover *obs.FailoverStats
	// traces records client-side spans (nil: propagate only).
	traces *span.Recorder
}

// New resolves a broker (directly or via BCS) and returns a ready client.
// Call Listen to receive push notifications.
func New(cfg Config) (*Client, error) {
	if cfg.Subscriber == "" {
		return nil, errors.New("client: Config.Subscriber is required")
	}
	httpClient := cfg.HTTPClient
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 30 * time.Second}
	}
	brokerURL := cfg.BrokerURL
	var brokerID string
	if brokerURL == "" {
		if cfg.BCS == nil {
			return nil, errors.New("client: need BrokerURL or BCS")
		}
		// Placement-aware discovery: the BCS hands every request for the
		// same subscriber key the same (HRW-owning) broker.
		placed, err := cfg.BCS.Place(cfg.Subscriber, "")
		if err != nil {
			return nil, fmt.Errorf("client: broker discovery: %w", err)
		}
		brokerURL = placed.Broker.Address
		brokerID = placed.Broker.ID
	}
	return &Client{
		subscriber:    cfg.Subscriber,
		brokerURL:     brokerURL,
		brokerID:      brokerID,
		bcs:           cfg.BCS,
		http:          httpClient,
		bsToFS:        make(map[string]string),
		fsToBS:        make(map[string]string),
		subs:          make(map[string]*subState),
		onState:       cfg.OnConnState,
		retry:         cfg.Retry,
		notifications: make(chan broker.PushNotification, 64),
		replies:       make(map[int64]pendingReply),
		failover:      &obs.FailoverStats{},
		traces:        cfg.Traces,
	}, nil
}

// Failover exposes the client's supervised-reconnect tallies (reconnect
// count and latency histogram).
func (c *Client) Failover() *obs.FailoverStats { return c.failover }

// place asks the BCS where this subscriber belongs, reporting the broker
// we last sat on as prev_broker, and remembers the answer for the next
// call.
func (c *Client) place() (bcs.PlacementResponse, error) {
	c.mu.Lock()
	prev := c.brokerID
	c.mu.Unlock()
	resp, err := c.bcs.Place(c.subscriber, prev)
	if err != nil {
		return bcs.PlacementResponse{}, err
	}
	c.mu.Lock()
	c.brokerID = resp.Broker.ID
	c.mu.Unlock()
	return resp, nil
}

// Subscriber returns the client's identity.
func (c *Client) Subscriber() string { return c.subscriber }

// BrokerURL returns the resolved broker address.
func (c *Client) BrokerURL() string { return c.base() }

// base returns the current broker URL under the lock (a failover swaps
// it).
func (c *Client) base() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.brokerURL
}

// Subscribe creates a frontend subscription and returns its ID. The
// returned ID stays valid across supervised failovers: the client aliases
// it to whatever frontend subscription the current broker assigned.
func (c *Client) Subscribe(channel string, params []any) (string, error) {
	var out broker.SubscribeResponse
	err := httpx.DoJSON(c.http, http.MethodPost, c.base()+"/v1/subscriptions",
		broker.SubscribeRequest{Subscriber: c.subscriber, Channel: channel, Params: params}, &out)
	if err != nil {
		return "", err
	}
	c.mu.Lock()
	c.subs[out.FrontendSub] = &subState{
		channel: channel, params: params, fs: out.FrontendSub,
		// Seed the resume token from the join marker so a failover before
		// the first delivery resumes from the right spot.
		lastTS: time.Duration(out.LatestNS),
	}
	if out.BackendSub != "" {
		c.bsToFS[out.BackendSub] = out.FrontendSub
		c.fsToBS[out.FrontendSub] = out.BackendSub
	}
	c.mu.Unlock()
	return out.FrontendSub, nil
}

// Unsubscribe withdraws a frontend subscription.
func (c *Client) Unsubscribe(fs string) error {
	// Broker URL and current subscription ID must come from one coherent
	// snapshot (see GetResults).
	c.mu.Lock()
	base, cur := c.brokerURL, fs
	if st := c.subs[fs]; st != nil {
		cur = st.fs
	}
	c.mu.Unlock()
	u := fmt.Sprintf("%s/v1/subscriptions/%s?subscriber=%s",
		base, url.PathEscape(cur), url.QueryEscape(c.subscriber))
	if err := httpx.DoJSON(c.http, http.MethodDelete, u, nil, nil); err != nil {
		return err
	}
	c.mu.Lock()
	delete(c.subs, fs)
	if bs, ok := c.fsToBS[fs]; ok {
		delete(c.bsToFS, bs)
		delete(c.fsToBS, fs)
	}
	c.mu.Unlock()
	return nil
}

// Subscriptions lists this subscriber's frontend subscription IDs.
func (c *Client) Subscriptions() ([]string, error) {
	var out map[string][]string
	u := c.base() + "/v1/subscribers/" + url.PathEscape(c.subscriber) + "/subscriptions"
	if err := httpx.DoJSON(c.http, http.MethodGet, u, nil, &out); err != nil {
		return nil, err
	}
	return out["subscriptions"], nil
}

// GetResults retrieves all new results of a frontend subscription in one
// round trip. The request carries the subscription's delivered watermark
// as its ack: the broker runs Algorithm 1's ACK for the previous
// retrieval first and GETRESULTS over what that leaves, so the marker at
// the broker trails the application by exactly one retrieval and nothing
// is ever acknowledged that was not handed out. At-least-once redelivery
// — after a failover resume, or of a retrieval whose response was lost — is
// deduplicated here: results at or below the watermark (timestamps the
// application already received) are dropped before being returned.
//
// While Listen's socket is up the request rides it (getOverSocket); if the
// socket dies first, it is made once more as a GET with ack=<ns>, the
// same ack: the ack is idempotent and the watermark drops what is served
// again. Without a socket it is that GET alone.
//
// A subscription this client did not create is adopted on its first
// retrieval: it gets a watermark (ack 0 first, then each answer's
// latest_ns) but no channel, so a failover does not carry it over.
//
// The items' strings share the reply's memory (broker.ResultItem):
// strings.Clone an ID or row value kept long after the items.
func (c *Client) GetResults(fs string) ([]broker.ResultItem, error) {
	// Snapshot broker URL, socket, current frontend-sub ID and watermark in
	// ONE critical section: a supervised failover commits all of them
	// together, and a mixed pair (old subscription ID, new broker — or vice
	// versa) would carry one broker's watermark to a subscription another
	// broker minted. A reply's waiter is registered in it too, so a socket
	// that dies from here on releases it (pump).
	c.mu.Lock()
	st := c.subs[fs]
	if st == nil {
		st = &subState{fs: fs}
		c.subs[fs] = st
	}
	base, cur, seen, origin := c.brokerURL, st.fs, st.lastTS, st.lastTrace
	var wait pendingReply
	if c.ws != nil {
		c.lastID++
		wait = pendingReply{id: c.lastID, conn: c.ws, ch: make(chan []byte, 1)}
		c.replies[wait.id] = wait
	}
	c.mu.Unlock()
	// Join the trace the push frame carried (when it carried one, else a
	// new one): the retrieval below then shows up as a client span of the
	// same end-to-end delivery trace, and a child of that span rides the
	// request as its traceparent, so the broker's server spans link in
	// too. Without a recorder the client span is never recorded, so only
	// its trace matters: the request descends from origin directly.
	var out broker.ResultsResponse
	ctx := context.Background()
	var rsp *span.Span
	parent := origin
	if c.traces != nil {
		ctx, rsp = c.traces.StartFrom(ctx, origin, "client.get_results")
		rsp.SetAttr("subscription", fs)
		parent = rsp.Context()
	} else if !parent.Valid() {
		parent = obs.NewSpan()
	}
	err := errSocketLost
	if wait.ch != nil {
		err = c.getOverSocket(wait, base, cur, seen, parent, &out)
	}
	if errors.Is(err, errSocketLost) {
		if rsp == nil {
			ctx = obs.ContextWithSpan(ctx, parent)
		}
		err = httpx.DoJSONContext(ctx, c.http, http.MethodGet, c.resultsURL(base, cur, seen), nil, &out)
	}
	rsp.SetError(err)
	rsp.End()
	if err != nil {
		return nil, err
	}
	kept := out.Results[:0]
	for _, item := range out.Results {
		if time.Duration(item.TimestampNS) > seen {
			kept = append(kept, item)
		}
	}
	// The watermark is the next request's ack and the resume token after a
	// failover. A stale answer never moves it (its marker is 0), so it
	// only advances on complete in-order deliveries.
	c.mu.Lock()
	if ts := time.Duration(out.LatestNS); ts > st.lastTS {
		st.lastTS = ts
	}
	c.mu.Unlock()
	return kept, nil
}

// resultsURL is the results route's URL for subscription cur at base,
// carrying ack. One allocation.
func (c *Client) resultsURL(base, cur string, ack time.Duration) string {
	fsPath, who := url.PathEscape(cur), url.QueryEscape(c.subscriber)
	var u strings.Builder
	u.Grow(len(base) + len(fsPath) + len(who) + 64)
	u.WriteString(base)
	u.WriteString("/v1/subscriptions/")
	u.WriteString(fsPath)
	u.WriteString("/results?subscriber=")
	u.WriteString(who)
	var buf [20]byte
	u.WriteString("&ack=")
	u.Write(strconv.AppendInt(buf[:0], int64(ack), 10))
	return u.String()
}

// pendingReply is a GetResults call waiting for the reply to request id
// on conn: ch receives it, or is closed when conn dies first.
type pendingReply struct {
	id   int64
	conn *wsock.Conn
	ch   chan []byte
}

// errSocketLost: the socket died before a retrieval's reply arrived.
var errSocketLost = errors.New("client: notification socket lost")

// replyTimers holds stopped timers with empty channels, so a retrieval on
// the notification socket waits for its reply without allocating one.
var replyTimers = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}}

// getFrames recycles retrieval request frames: the socket is done with a
// frame once WriteMessage returns (it copies a small one into its own
// buffer), and a frame handed to it escapes, so a stack buffer would not.
var getFrames = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// getOverSocket makes one retrieval on the notification socket, the frame
// {"get":fs,"id":n,"ack":ns,"tp":...} with a child of parent as its
// traceparent, waiting no longer than the HTTP client's Timeout. The reply
// is the results route's body with "re":n, or
// {"re":n,"status":s,"error":{...}}, which becomes the route's error.
func (c *Client) getOverSocket(wait pendingReply, base, cur string, ack time.Duration, parent obs.SpanContext, out *broker.ResultsResponse) error {
	bp := getFrames.Get().(*[]byte)
	*bp = broker.AppendGetRequest((*bp)[:0], cur, wait.id, int64(ack), parent.Child())
	werr := wait.conn.WriteMessage(wsock.OpText, *bp)
	getFrames.Put(bp)
	var body []byte
	var err error
	// A request the socket cannot take finds it closed or broken: the
	// socket is lost, as when it dies before the reply.
	if werr == nil {
		body, err = c.awaitReply(wait.ch, cur)
	}
	if body == nil { // not sent, timed out, or the socket died
		c.mu.Lock()
		delete(c.replies, wait.id)
		c.mu.Unlock()
		return cmp.Or(err, errSocketLost)
	}
	if !bytes.HasPrefix(body, []byte(`{"re":`)) {
		if err := out.UnmarshalJSON(body); err != nil {
			return fmt.Errorf("client: decode results reply: %w", err)
		}
		return nil
	}
	var e struct {
		Status int             `json:"status"`
		Error  httpx.ErrorInfo `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		return fmt.Errorf("client: decode results reply: %w", err)
	}
	if e.Status == http.StatusRequestEntityTooLarge {
		return &httpx.TooLargeError{URL: c.resultsURL(base, cur, ack), Limit: httpx.MaxBodyBytes}
	}
	return fmt.Errorf("client: retrieval of %s: %w", cur, &httpx.StatusError{
		Status: e.Status, Code: e.Error.Code, Message: e.Error.Message, Retryable: e.Error.Retryable})
}

// awaitReply waits for the reply ch carries (nil when the socket died
// first) no longer than the HTTP client's Timeout, on a pooled timer. A
// timer that fired as the reply came is left to the collector rather than
// pooled, so no pooled timer holds a stale tick.
func (c *Client) awaitReply(ch <-chan []byte, cur string) ([]byte, error) {
	d := c.http.Timeout
	if d <= 0 {
		return <-ch, nil
	}
	t := replyTimers.Get().(*time.Timer)
	t.Reset(d)
	select {
	case body := <-ch:
		if t.Stop() {
			replyTimers.Put(t)
		}
		return body, nil
	case <-t.C:
		replyTimers.Put(t)
		return nil, fmt.Errorf("client: no reply to the retrieval of %s within %v", cur, d)
	}
}

// replyID is the request id a retrieval reply on the notification socket
// names: first in an error reply, last in a results body, so a row's own
// "re" key is never taken for it. ok is false for a push notification.
func replyID(p []byte) (id int64, ok bool) {
	if rest, found := bytes.CutPrefix(p, []byte(`{"re":`)); found {
		p, _, _ = bytes.Cut(rest, []byte(","))
	} else if i := bytes.LastIndex(p, []byte(`,"re":`)); i >= 0 {
		p = bytes.TrimSuffix(p[i+len(`,"re":`):], []byte("}\n"))
	} else {
		return 0, false
	}
	id, err := strconv.ParseInt(string(p), 10, 64)
	return id, err == nil
}

// Listen opens the notification WebSocket (logging the subscriber in) and
// returns once the socket is established. From then on a supervisor pumps
// incoming notifications into Notifications and keeps the stream alive
// across broker failures, restarts and drains (see superviseLoop) until
// Logout or Close.
func (c *Client) Listen() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errors.New("client: closed")
	}
	if c.supDone != nil {
		c.mu.Unlock()
		return nil // already listening
	}
	base := c.brokerURL
	c.mu.Unlock()

	conn, err := c.dialWS(base)
	if err != nil {
		return err
	}
	c.mu.Lock()
	if c.closed || c.supDone != nil {
		c.mu.Unlock()
		_ = conn.Close()
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	c.supDone = make(chan struct{})
	supDone := c.supDone
	c.mu.Unlock()
	go c.superviseLoop(ctx, conn, supDone)
	return nil
}

// dialWS connects the notification socket at a broker base URL.
func (c *Client) dialWS(brokerURL string) (*wsock.Conn, error) {
	wsURL := brokerURL + "/v1/ws?subscriber=" + url.QueryEscape(c.subscriber)
	conn, err := wsock.Dial(wsURL, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("client: notification socket: %w", err)
	}
	return conn, nil
}

// pump forwards the socket's notifications to Notifications and each
// retrieval reply, undecoded, to its GetResults call, until the socket dies.
func (c *Client) pump(conn *wsock.Conn) {
	for {
		_, payload, err := conn.ReadMessage()
		if err != nil {
			c.mu.Lock()
			if c.ws == conn {
				c.ws = nil
			}
			for id, p := range c.replies {
				if p.conn == conn {
					close(p.ch)
					delete(c.replies, id)
				}
			}
			c.mu.Unlock()
			return
		}
		if id, ok := replyID(payload); ok {
			c.mu.Lock()
			p, waiting := c.replies[id]
			delete(c.replies, id)
			c.mu.Unlock()
			if waiting {
				p.ch <- payload // buffered, and this is its one send
			}
			continue
		}
		var n broker.PushNotification
		if err := n.UnmarshalJSON(payload); err != nil {
			continue
		}
		if n.FrontendSub == "" && n.BackendSub != "" {
			// The shared wire form names the backend subscription; restore
			// this subscriber's frontend view of it. No mapping (a push
			// racing the Subscribe response) means the notification cannot be
			// routed — drop it rather than deliver an empty FrontendSub;
			// markers are cumulative, so the next one or GetResults
			// catches the subscriber up.
			c.mu.Lock()
			fs, ok := c.bsToFS[n.BackendSub]
			c.mu.Unlock()
			if !ok {
				continue
			}
			n.FrontendSub = fs
		}
		if n.Traceparent != "" {
			// Remember the delivery's trace context so the follow-up
			// GetResults joins it. Latest-wins, matching the marker
			// semantics: the newest frame supersedes queued ones.
			if sc, ok := obs.ParseTraceparent(n.Traceparent); ok {
				c.mu.Lock()
				if st := c.subs[n.FrontendSub]; st != nil {
					st.lastTrace = sc
				}
				c.mu.Unlock()
			}
		}
		select {
		case c.notifications <- n:
		default:
			// Notification channel full: drop. Notifications are
			// cumulative; the next GetResults catches everything up.
		}
	}
}

// Notifications returns the push notification stream.
func (c *Client) Notifications() <-chan broker.PushNotification { return c.notifications }

// Logout closes the notification socket (the subscriber goes offline) but
// keeps all subscriptions alive — cached results keep accumulating at the
// broker, which is exactly the asynchrony broker caching enables. It also
// stops the supervisor (an intentional logout is not a failure to recover
// from); Listen starts it again.
func (c *Client) Logout() {
	// Cancel before taking the socket: the supervisor checks the context
	// under the same lock before adopting a freshly reconnected socket, so
	// from here it can only shut down, never race a new connection into
	// c.ws.
	c.mu.Lock()
	if c.cancel != nil {
		c.cancel()
		c.cancel = nil
	}
	conn, supDone := c.ws, c.supDone
	c.ws, c.supDone = nil, nil
	c.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
	if supDone != nil {
		<-supDone
	}
}

// Close logs out and marks the client unusable.
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.Logout()
}
