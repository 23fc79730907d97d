package client

import (
	"context"
	"errors"
	"math"
	"net/http"
	"sort"
	"time"

	"gobad/internal/broker"
	"gobad/internal/httpx"
	"gobad/internal/wsock"
)

// ConnState is the notification connection's lifecycle state, reported
// through Config.OnConnState.
type ConnState int

const (
	// StateConnected: the notification socket is up and every subscription
	// is established on the current broker.
	StateConnected ConnState = iota
	// StateReconnecting: the socket died; the supervisor is rediscovering
	// a broker and resubscribing with resume tokens, under backoff.
	StateReconnecting
	// StateMigrated: the broker drained and named a successor; the client
	// is failing over to it immediately, without backoff.
	StateMigrated
)

// String names the state for logs.
func (s ConnState) String() string {
	switch s {
	case StateConnected:
		return "connected"
	case StateReconnecting:
		return "reconnecting"
	case StateMigrated:
		return "migrated"
	}
	return "unknown"
}

// setState reports a connection-state transition to the observer.
func (c *Client) setState(state ConnState, brokerURL string) {
	if c.onState != nil {
		c.onState(state, brokerURL)
	}
}

// superviseLoop owns the notification socket from Listen to Logout/Close:
// pump until the socket dies, then reconnect — honoring a drain's migrate
// frame first, falling back to BCS rediscovery (without a BCS, the
// last-known broker) under jittered exponential backoff — resubscribe
// everything with resume tokens and pump again. Besides Logout/Close
// (context cancelled) it ends in two cases, after either of which Listen
// starts it again: the broker closed the session normally, which it only
// does to a session replaced by a newer attach of the same subscriber
// (reconnecting would replace the replacer, and the two would take turns
// forever), or a bounded retry budget (Config.Retry.MaxAttempts) ran out.
func (c *Client) superviseLoop(ctx context.Context, conn *wsock.Conn, supDone chan struct{}) {
	defer func() {
		c.mu.Lock()
		if c.supDone == supDone { // not a Logout: nobody else will clear it
			c.cancel()
			c.cancel, c.supDone = nil, nil
		}
		c.mu.Unlock()
		close(supDone)
	}()
	for {
		c.mu.Lock()
		if ctx.Err() != nil { // Logout, or the Logout inside Close
			c.mu.Unlock()
			_ = conn.Close()
			return
		}
		c.ws = conn
		c.mu.Unlock()
		c.setState(StateConnected, c.base())

		c.pump(conn) // blocks until the socket dies

		if ctx.Err() != nil {
			return
		}
		lost := time.Now()
		code, reason := conn.CloseStatus()
		if code == wsock.CloseNormal {
			return
		}
		next, err := c.reconnect(ctx, code, reason)
		if err != nil {
			return
		}
		c.failover.Reconnects.Add(1)
		c.failover.ReconnectSeconds.Observe(time.Since(lost).Seconds())
		conn = next
	}
}

// reconnect re-establishes the session after a socket loss. A drain's
// migrate frame (CloseServiceRestart + successor URL) is honored first and
// immediately — no backoff, no BCS round trip; otherwise the supervisor
// retries under the backoff policy, asking the BCS for a live broker on
// each attempt (the old one may be gone for good).
func (c *Client) reconnect(ctx context.Context, code uint16, reason string) (*wsock.Conn, error) {
	if code == wsock.CloseServiceRestart && reason != "" {
		c.setState(StateMigrated, reason)
		if conn, err := c.tryBroker(reason); err == nil {
			return conn, nil
		}
		// Successor unreachable; fall back to supervised discovery.
	}
	c.setState(StateReconnecting, c.base())
	r := c.reconnectPolicy()
	var conn *wsock.Conn
	err := r.Do(ctx, func(ctx context.Context) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		target := c.base()
		if c.bcs != nil {
			if placed, aerr := c.place(); aerr == nil {
				target = placed.Broker.Address
			}
			// A failed placement (BCS restarting, every broker stale) is
			// not fatal: retry the last-known broker, it may be back
			// already.
		}
		var derr error
		conn, derr = c.tryBroker(target)
		return derr
	})
	if err != nil {
		return nil, err
	}
	return conn, nil
}

// reconnectPolicy derives the supervisor's Retryer: the user's backoff
// shape (or the production defaults) with retry-everything classification —
// only a cancelled context (Close/Logout) stops a reconnect.
func (c *Client) reconnectPolicy() *httpx.Retryer {
	r := &httpx.Retryer{
		MaxAttempts: math.MaxInt32,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    5 * time.Second,
		Classify: func(err error) bool {
			return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
		},
	}
	if c.retry != nil {
		if c.retry.MaxAttempts > 0 {
			r.MaxAttempts = c.retry.MaxAttempts
		}
		if c.retry.BaseDelay > 0 {
			r.BaseDelay = c.retry.BaseDelay
		}
		if c.retry.MaxDelay > 0 {
			r.MaxDelay = c.retry.MaxDelay
		}
		r.Rand = c.retry.Rand
		r.Sleep = c.retry.Sleep
		r.Stats = c.retry.Stats
	}
	return r
}

// tryBroker fails the session over to brokerURL: dial the notification
// socket first (so resume push markers armed during resubscription are
// caught, not missed), then re-establish every subscription this client
// created with its resume token, then commit the new broker URL and
// routing maps. Any failure closes the socket and reports the error;
// nothing is committed.
func (c *Client) tryBroker(brokerURL string) (*wsock.Conn, error) {
	conn, err := c.dialWS(brokerURL)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	appIDs := make([]string, 0, len(c.subs))
	for id := range c.subs {
		appIDs = append(appIDs, id)
	}
	c.mu.Unlock()
	sort.Strings(appIDs)

	type placement struct{ appID, fs, bs string }
	placed := make([]placement, 0, len(appIDs))
	for _, appID := range appIDs {
		c.mu.Lock()
		st := c.subs[appID]
		if st == nil || st.channel == "" { // unsubscribed while reconnecting, or adopted
			c.mu.Unlock()
			continue
		}
		channel, params := st.channel, st.params
		resume := st.lastTS
		c.mu.Unlock()
		var out broker.SubscribeResponse
		req := broker.SubscribeRequest{
			Subscriber: c.subscriber, Channel: channel, Params: params,
			ResumeToken: broker.FormatResumeToken(resume),
		}
		if err := httpx.DoJSON(c.http, http.MethodPost, brokerURL+"/v1/subscriptions", req, &out); err != nil {
			_ = conn.Close()
			return nil, err
		}
		placed = append(placed, placement{appID: appID, fs: out.FrontendSub, bs: out.BackendSub})
	}

	c.mu.Lock()
	c.brokerURL = brokerURL
	c.bsToFS = make(map[string]string, len(placed))
	c.fsToBS = make(map[string]string, len(placed))
	for _, p := range placed {
		st := c.subs[p.appID]
		if st == nil {
			continue
		}
		st.fs = p.fs
		if p.bs != "" {
			c.bsToFS[p.bs] = p.appID
			c.fsToBS[p.appID] = p.bs
		}
	}
	c.mu.Unlock()

	return conn, nil
}
