package client

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gobad/internal/bdms"
	"gobad/internal/broker"
	"gobad/internal/core"
)

// exchangeTransport records every request of the subscriber exchange and
// can lose one results response: the broker handled the request, the
// client never reads the body.
type exchangeTransport struct {
	mu       sync.Mutex
	gets     []string // raw queries of the results GETs, in order
	acks     int      // POSTs to .../ack
	loseNext bool
}

var errBodyLost = errors.New("response body lost in transit")

type lostBody struct{}

func (lostBody) Read([]byte) (int, error) { return 0, errBodyLost }
func (lostBody) Close() error             { return nil }

func (tr *exchangeTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	switch {
	case strings.HasSuffix(req.URL.Path, "/ack"):
		tr.acks++
	case strings.HasSuffix(req.URL.Path, "/results"):
		tr.gets = append(tr.gets, req.URL.RawQuery)
		if tr.loseNext {
			tr.loseNext = false
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			resp.Body = lostBody{}
		}
	}
	return resp, nil
}

func (tr *exchangeTransport) lose() {
	tr.mu.Lock()
	tr.loseNext = true
	tr.mu.Unlock()
}

func (tr *exchangeTransport) counts() (gets, acks int) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.gets), tr.acks
}

// exchangeEnv is a broker over HTTP whose cluster notifies it in process
// and synchronously: when publish returns, the result is in the broker's
// cache, so every step of the exchange is deterministic.
type exchangeEnv struct {
	cluster *bdms.Cluster
	broker  *broker.Broker
	tr      *exchangeTransport
	client  *Client
	fs      string
	sev     float64
}

func newExchangeEnv(t *testing.T) *exchangeEnv {
	t.Helper()
	env := &exchangeEnv{tr: &exchangeTransport{}}
	env.cluster = bdms.NewCluster(bdms.WithNotifier(bdms.NotifierFunc(
		func(ctx context.Context, subID, _ string, latest time.Duration) {
			_ = env.broker.HandleNotificationContext(ctx, subID, latest, nil)
		})))
	if err := env.cluster.CreateDataset("EmergencyReports", bdms.Schema{}); err != nil {
		t.Fatal(err)
	}
	if err := env.cluster.DefineChannel(bdms.ChannelDef{
		Name:   "Alerts",
		Params: []string{"etype"},
		Body:   "select * from EmergencyReports r where r.etype = $etype",
	}); err != nil {
		t.Fatal(err)
	}
	b, err := broker.New(broker.Config{
		ID: "xb", Backend: env.cluster, Policy: core.LSC{}, CacheBudget: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	env.broker = b
	srv := httptest.NewServer(broker.NewServer(b).Handler())
	t.Cleanup(srv.Close)
	c, err := New(Config{Subscriber: "alice", BrokerURL: srv.URL,
		HTTPClient: &http.Client{Transport: env.tr}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	env.client = c
	if env.fs, err = c.Subscribe("Alerts", []any{"fire"}); err != nil {
		t.Fatal(err)
	}
	return env
}

// publish ingests one matching record carrying the next sequence number
// as its severity.
func (env *exchangeEnv) publish(t *testing.T) {
	t.Helper()
	env.sev++
	if _, err := env.cluster.Ingest("EmergencyReports", map[string]any{
		"etype": "fire", "severity": env.sev,
	}); err != nil {
		t.Fatal(err)
	}
}

func (env *exchangeEnv) marker(t *testing.T) time.Duration {
	t.Helper()
	m, err := env.broker.Marker("alice", env.fs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func (env *exchangeEnv) watermark() time.Duration {
	env.client.mu.Lock()
	defer env.client.mu.Unlock()
	return env.client.subs[env.fs].lastTS
}

// severities lists what one retrieval handed the application.
func severities(items []broker.ResultItem) []float64 {
	out := []float64{}
	for _, it := range items {
		for _, row := range it.Rows {
			sev, _ := row["severity"].(float64)
			out = append(out, sev)
		}
	}
	return out
}

func sameSeverities(got []broker.ResultItem, want ...float64) bool {
	sevs := severities(got)
	if len(sevs) != len(want) {
		return false
	}
	for i := range want {
		if sevs[i] != want[i] {
			return false
		}
	}
	return true
}

// TestGetResultsIsOneRoundTrip: a retrieval on a tracked subscription is
// one request — none to /ack — and the marker at the broker trails the
// client's watermark by exactly one retrieval, empty retrievals included.
func TestGetResultsIsOneRoundTrip(t *testing.T) {
	env := newExchangeEnv(t)
	var watermarks []time.Duration // after retrieval k
	for k, publishes := range []int{1, 2, 0, 1, 0} {
		for i := 0; i < publishes; i++ {
			env.publish(t)
		}
		items, err := env.client.GetResults(env.fs)
		if err != nil {
			t.Fatal(err)
		}
		if len(items) != publishes {
			t.Fatalf("retrieval %d returned %v, want %d results", k, severities(items), publishes)
		}
		want := time.Duration(0)
		if k > 0 {
			want = watermarks[k-1]
		}
		if got := env.marker(t); got != want {
			t.Errorf("broker marker after retrieval %d = %v, want retrieval %d's watermark %v", k, got, k-1, want)
		}
		watermarks = append(watermarks, env.watermark())
	}
	// The empty retrievals acknowledged what came before them.
	if watermarks[2] != watermarks[1] || env.marker(t) != watermarks[3] {
		t.Errorf("watermarks %v, final marker %v: an empty retrieval must still carry the ack", watermarks, env.marker(t))
	}
	if gets, acks := env.tr.counts(); gets != 5 || acks != 0 {
		t.Errorf("5 retrievals made %d GETs and %d ack POSTs, want 5 and 0", gets, acks)
	}

	// A subscription the client did not create is adopted on its first
	// retrieval: two retrievals are two GETs, the second carrying the
	// first's answer as its ack, and nothing reaches the application twice.
	fs, err := env.broker.Subscribe("alice", "Alerts", []any{"flood"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.cluster.Ingest("EmergencyReports", map[string]any{"etype": "flood"}); err != nil {
		t.Fatal(err)
	}
	if items, err := env.client.GetResults(fs); err != nil || len(items) != 1 {
		t.Fatalf("adopted subscription's first retrieval = %d items, %v; want 1", len(items), err)
	}
	if m, _ := env.broker.Marker("alice", fs); m != 0 {
		t.Errorf("marker after the adopted subscription's first retrieval = %v, want 0 (its ack)", m)
	}
	env.client.mu.Lock()
	adopted := env.client.subs[fs].lastTS
	env.client.mu.Unlock()
	if items, err := env.client.GetResults(fs); err != nil || len(items) != 0 {
		t.Fatalf("adopted subscription's second retrieval = %v, %v; want nothing again", severities(items), err)
	}
	if m, _ := env.broker.Marker("alice", fs); m != adopted || m == 0 {
		t.Errorf("marker after the second retrieval = %v, want the first's latest %v", m, adopted)
	}
	if gets, acks := env.tr.counts(); gets != 7 || acks != 0 {
		t.Errorf("adopted subscription: %d GETs and %d ack POSTs in total, want 7 and 0", gets, acks)
	}
}

// TestLostResultsResponse: the response to GET k+1 — which carried the ack
// for retrieval k — is lost once. The ack it applied is idempotent, the
// retry carries the same ack, and nothing of retrieval k reaches the
// application twice. The retry is answered whole although the cache
// consumes at GET: a result another subscriber still has pending is served
// again from the cache; a result whose LAST consumer's response was lost
// was dropped from the cache, which moved its coverage mark, so the retry
// misses and re-fetches it from the cluster.
func TestLostResultsResponse(t *testing.T) {
	for _, shared := range []bool{true, false} {
		name := "sole consumer"
		if shared {
			name = "another consumer pending"
		}
		t.Run(name, func(t *testing.T) {
			env := newExchangeEnv(t)
			if shared {
				if _, err := env.broker.Subscribe("bob", "Alerts", []any{"fire"}); err != nil {
					t.Fatal(err)
				}
			}
			env.publish(t)
			first, err := env.client.GetResults(env.fs)
			if err != nil || !sameSeverities(first, 1) {
				t.Fatalf("retrieval 1 = %v, %v; want [1]", severities(first), err)
			}
			w1 := env.watermark()

			env.publish(t)
			env.tr.lose()
			if items, err := env.client.GetResults(env.fs); err == nil || len(items) != 0 {
				t.Fatalf("lost response surfaced as %v, %v; want an error and nothing", severities(items), err)
			}
			// The broker applied the ack the lost exchange carried; the
			// client, having received nothing, did not move.
			if got := env.marker(t); got != w1 {
				t.Errorf("marker after the lost exchange = %v, want retrieval 1's %v", got, w1)
			}
			if got := env.watermark(); got != w1 {
				t.Errorf("watermark after the lost exchange = %v, want %v", got, w1)
			}

			retry, err := env.client.GetResults(env.fs)
			if err != nil {
				t.Fatal(err)
			}
			env.tr.mu.Lock()
			lost, again := env.tr.gets[1], env.tr.gets[2]
			env.tr.mu.Unlock()
			if lost != again {
				t.Errorf("retry query %q differs from the lost request's %q", again, lost)
			}
			if got := env.marker(t); got != w1 {
				t.Errorf("marker after the retry = %v, want %v (the repeated ack is a no-op)", got, w1)
			}
			if !sameSeverities(retry, 2) {
				t.Errorf("retry returned %v, want [2] and result 1 not repeated", severities(retry))
			} else if retry[0].FromCache != shared {
				t.Errorf("retry served result 2 from the cache: %v, want %v (cached for bob, re-fetched otherwise)", retry[0].FromCache, shared)
			}
			if env.watermark() == w1 {
				t.Errorf("watermark still %v after the retry delivered result 2", w1)
			}

			// The stream continues whole from here either way.
			env.publish(t)
			next, err := env.client.GetResults(env.fs)
			if err != nil || !sameSeverities(next, 3) {
				t.Errorf("retrieval after the retry = %v, %v; want [3]", severities(next), err)
			}
			if _, acks := env.tr.counts(); acks != 0 {
				t.Errorf("%d ack POSTs, want 0", acks)
			}
		})
	}
}

// TestBrokerKilledBetweenRetrievals: the broker dies holding an
// unacknowledged retrieval — the ack would have ridden the next GET. The
// supervised client resumes on the successor from its own watermark, which
// is authoritative: nothing is lost and nothing reaches the application
// twice.
func TestBrokerKilledBetweenRetrievals(t *testing.T) {
	env := newChaosEnv(t)
	fs, err := env.client.Subscribe("Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	var got []broker.ResultItem
	env.publish(t, 3)
	collect(t, env, fs, &got, 3)
	env.client.mu.Lock()
	st := env.client.subs[fs]
	watermark, cur := st.lastTS, st.fs
	env.client.mu.Unlock()
	if m, err := env.b1.Marker("bob", cur); err != nil || m >= watermark {
		t.Fatalf("broker-1 marker = %v, %v; want below the client's watermark %v (last retrieval unacknowledged)", m, err, watermark)
	}

	if err := env.svc.Deregister("broker-1"); err != nil {
		t.Fatal(err)
	}
	env.b1.kill()
	env.publish(t, 2)
	collect(t, env, fs, &got, 5)
	verifyStream(t, got, 5)

	// On the successor the subscription resumed at the watermark, not at
	// the dead broker's older marker.
	env.client.mu.Lock()
	cur = env.client.subs[fs].fs
	env.client.mu.Unlock()
	if m, err := env.b2.Marker("bob", cur); err != nil || m < watermark {
		t.Errorf("broker-2 marker = %v, %v; want at least the resumed watermark %v", m, err, watermark)
	}
}
