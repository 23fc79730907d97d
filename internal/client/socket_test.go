package client

import (
	"context"
	"errors"
	"net/http"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gobad/internal/bdms"
	"gobad/internal/broker"
	"gobad/internal/core"
	"gobad/internal/httpx"
)

// countGets counts the results GETs that pass through it.
type countGets struct{ n *atomic.Int64 }

func (g countGets) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasSuffix(req.URL.Path, "/results") {
		g.n.Add(1)
	}
	return http.DefaultTransport.RoundTrip(req)
}

// testBackend fronts a test broker's cluster: while fail is set every
// fetch fails, and once hold is set the next fetch signals entered and
// waits for release. Under NC every retrieval fetches, so a held fetch is a
// retrieval in flight at the broker for as long as the test needs.
type testBackend struct {
	broker.Backend
	fail, hold       atomic.Bool
	entered, release chan struct{}
}

func (b *testBackend) ResultsContext(ctx context.Context, subID string, from, to time.Duration, inclusiveTo bool) ([]bdms.ResultObject, error) {
	if b.fail.Load() {
		return nil, errors.New("cluster unreachable")
	}
	if b.hold.CompareAndSwap(true, false) {
		close(b.entered)
		<-b.release
	}
	return b.Backend.ResultsContext(ctx, subID, from, to, inclusiveTo)
}

// fetchEveryRetrieval fronts a broker's cluster with be under NC.
func fetchEveryRetrieval(be *testBackend) func(*broker.Config) {
	return func(cfg *broker.Config) {
		be.Backend, cfg.Backend, cfg.Policy = cfg.Backend, be, core.NC{}
	}
}

// awaitNotification waits for a push notification past after: the broker
// then holds a result the next retrieval must fetch.
func awaitNotification(t *testing.T, c *Client, after int64) {
	t.Helper()
	for deadline := time.After(10 * time.Second); ; {
		select {
		case n := <-c.Notifications():
			if n.LatestNS > after {
				return
			}
		case <-deadline:
			t.Fatalf("no notification past %d", after)
		}
	}
}

// retrieveUntil calls GetResults until the delivered stream holds want
// items, whether or not a notification announces them.
func retrieveUntil(t *testing.T, c *Client, fs string, got *[]broker.ResultItem, want int) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); len(*got) < want; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d results", len(*got), want)
		}
		items, _ := c.GetResults(fs)
		*got = append(*got, items...)
	}
}

// TestSocketRetrievalFallsBackOnce: a retrieval whose notification socket
// goes away before the reply — its broker killed, a drain's migrate frame,
// the session replaced by a newer attach, a Logout racing it — is made
// exactly once more, over HTTP with the same ack, and the delivered stream
// stays whole.
func TestSocketRetrievalFallsBackOnce(t *testing.T) {
	for _, tc := range []struct {
		name      string
		interrupt func(t *testing.T, env *chaosEnv)
	}{
		{"broker killed", func(t *testing.T, env *chaosEnv) {
			if err := env.svc.Deregister("broker-1"); err != nil {
				t.Fatal(err)
			}
			env.b1.kill()
		}},
		{"drain's migrate frame", func(t *testing.T, env *chaosEnv) {
			if err := env.svc.Deregister("broker-1"); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if n := env.b1.Drain(ctx, env.b2.srv.URL); n != 1 {
				t.Fatalf("Drain migrated %d sessions, want 1", n)
			}
		}},
		{"session replaced", func(t *testing.T, env *chaosEnv) {
			newer, err := New(Config{Subscriber: "bob", BrokerURL: env.b1.srv.URL})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(newer.Close)
			if err := newer.Listen(); err != nil {
				t.Fatal(err)
			}
		}},
		{"Logout", func(_ *testing.T, env *chaosEnv) { env.client.Logout() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			be := &testBackend{entered: make(chan struct{}), release: make(chan struct{})}
			env := newChaosEnvFor(t, "bob", fetchEveryRetrieval(be))
			fs, err := env.client.Subscribe("Alerts", []any{"fire"})
			if err != nil {
				t.Fatal(err)
			}
			var got []broker.ResultItem
			env.publish(t, 2)
			collect(t, env, fs, &got, 2)
			env.publish(t, 1)
			awaitNotification(t, env.client, got[1].TimestampNS)
			retrieved := make(chan []broker.ResultItem, 1)
			gets := env.gets.Load()
			be.hold.Store(true)
			go func() {
				items, err := env.client.GetResults(fs)
				if err != nil {
					t.Logf("interrupted GetResults: %v", err)
				}
				retrieved <- items
			}()
			select {
			case <-be.entered:
			case <-time.After(10 * time.Second):
				t.Fatal("the retrieval never reached the broker's cluster fetch")
			}
			if env.gets.Load() != gets {
				t.Fatal("the retrieval went over HTTP, not the socket")
			}
			tc.interrupt(t, env)
			close(be.release)
			got = append(got, <-retrieved...)
			if n := env.gets.Load() - gets; n != 1 {
				t.Errorf("the interrupted retrieval made %d HTTP requests, want exactly 1", n)
			}
			env.publish(t, 1)
			retrieveUntil(t, env.client, fs, &got, 4)
			verifyStream(t, got, 4)
		})
	}
}

// TestSocketErrorsMatchHTTP: a retrieval over the notification socket
// fails as the same retrieval over HTTP does — a cluster outage as a
// retryable 502 *httpx.StatusError, an unknown subscription as a 404, a
// body over httpx.MaxBodyBytes as an *httpx.TooLargeError — and the
// listening client never falls back to HTTP for any of them.
func TestSocketErrorsMatchHTTP(t *testing.T) {
	// compare subscribes the chaos rig's listening client and a second,
	// never listening one to the same channel on a broker-1 configured by
	// opts; each returned call retrieves through both and checks both
	// errors.
	compare := func(opts ...func(*broker.Config)) (*chaosEnv, func(string, func(error) bool), func()) {
		env := newChaosEnvFor(t, "bob", opts...)
		var overHTTP atomic.Int64
		hal, err := New(Config{Subscriber: "hal", BrokerURL: env.b1.srv.URL,
			HTTPClient: &http.Client{Transport: countGets{&overHTTP}}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(hal.Close)
		fss := map[*Client]string{}
		for _, c := range []*Client{env.client, hal} {
			if fss[c], err = c.Subscribe("Alerts", []any{"fire"}); err != nil {
				t.Fatal(err)
			}
		}
		gets := env.gets.Load()
		same := func(what string, check func(error) bool) {
			t.Helper()
			_, errHTTP := hal.GetResults(fss[hal])
			_, errSock := env.client.GetResults(fss[env.client])
			if !check(errHTTP) || !check(errSock) {
				t.Errorf("%s: over HTTP %v, over the socket %v", what, errHTTP, errSock)
			}
			if n := env.gets.Load() - gets; n != 0 {
				t.Errorf("%s: the listening client made %d HTTP retrievals, want none", what, n)
			}
			if overHTTP.Load() == 0 {
				t.Errorf("%s: the other client made no HTTP retrieval", what)
			}
		}
		unsubscribe := func() {
			for c, fs := range fss {
				c.mu.Lock()
				cur := c.subs[fs].fs
				c.mu.Unlock()
				if err := env.b1.Unsubscribe(c.Subscriber(), cur); err != nil {
					t.Fatal(err)
				}
			}
		}
		return env, same, unsubscribe
	}
	status := func(code int, retryable bool) func(error) bool {
		return func(err error) bool {
			var se *httpx.StatusError
			return errors.As(err, &se) && se.Status == code && se.Code == httpx.CodeForStatus(code) && se.Retryable == retryable
		}
	}

	be := &testBackend{}
	env, same, unsubscribe := compare(fetchEveryRetrieval(be))
	env.publish(t, 1)
	awaitNotification(t, env.client, 0)
	be.fail.Store(true)
	same("cluster outage", status(http.StatusBadGateway, true))
	unsubscribe()
	same("unknown subscription", status(http.StatusNotFound, false))

	if raceBuild() {
		t.Skip("the race detector multiplies 18 MiB of results; too-large case skipped")
	}
	// Five cached results of 3.5 MiB: each is pushed to the broker alone,
	// under the notifier's 4 MiB envelope budget; together they are over
	// the read bound.
	env, same, _ = compare(func(cfg *broker.Config) { cfg.CacheBudget = 64 << 20 })
	for i := 0; i < 5; i++ {
		if _, err := env.cluster.Ingest("EmergencyReports", map[string]any{
			"etype": "fire", "message": strings.Repeat("x", 7<<19),
		}); err != nil {
			t.Fatal(err)
		}
		awaitNotification(t, env.client, 0)
	}
	same("reply over the read bound", func(err error) bool {
		var tl *httpx.TooLargeError
		return errors.As(err, &tl) && tl.Limit == httpx.MaxBodyBytes && strings.Contains(tl.URL, "/results?")
	})
}

// raceBuild reports a -race test binary.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
