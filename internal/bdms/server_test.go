package bdms

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"gobad/internal/httpx"
)

func newTestServer(t *testing.T) (*Client, *Cluster, *testClock) {
	t.Helper()
	c, clk := newTestCluster(t)
	srv := httptest.NewServer(NewServer(c).Handler())
	t.Cleanup(srv.Close)
	return NewClient(srv.URL, srv.Client()), c, clk
}

func TestServerHealthAndStats(t *testing.T) {
	client, _, _ := newTestServer(t)
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ingested != 0 || stats.Subscriptions != 0 {
		t.Errorf("fresh stats = %+v", stats)
	}
}

func TestServerEndToEnd(t *testing.T) {
	client, _, clk := newTestServer(t)

	if err := client.CreateDataset("EmergencyReports", Schema{}); err != nil {
		t.Fatal(err)
	}
	if err := client.CreateDataset("EmergencyReports", Schema{}); err == nil {
		t.Error("duplicate dataset should fail over REST too")
	}
	names, err := client.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "EmergencyReports" {
		t.Errorf("datasets = %v", names)
	}

	def := ChannelDef{
		Name:   "Alerts",
		Params: []string{"etype"},
		Body:   "select * from EmergencyReports r where r.etype = $etype",
		Period: 0,
	}
	if err := client.DefineChannel(def); err != nil {
		t.Fatal(err)
	}
	chans, err := client.Channels()
	if err != nil {
		t.Fatal(err)
	}
	if len(chans) != 1 || chans[0].Name != "Alerts" || chans[0].Period != 0 {
		t.Errorf("channels = %+v", chans)
	}

	sub, err := client.Subscribe("Alerts", []any{"fire"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if sub == "" {
		t.Fatal("empty subscription id")
	}

	clk.Advance(time.Second)
	ing, err := client.Ingest("EmergencyReports", report("fire", 3, 33, -117))
	if err != nil {
		t.Fatal(err)
	}
	if ing.Seq != 1 {
		t.Errorf("seq = %d", ing.Seq)
	}

	latest, err := client.LatestTimestamp(sub)
	if err != nil {
		t.Fatal(err)
	}
	if latest == 0 {
		t.Fatal("no result timestamp after matching ingest")
	}
	results, err := client.Results(sub, 0, latest, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || rowsOf(t, results[0])[0]["etype"] != "fire" {
		t.Fatalf("results = %+v", results)
	}
	wantID := results[0].ID
	// Exclusive right end excludes the newest object.
	results, err = client.Results(sub, 0, latest, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Errorf("exclusive fetch returned %d", len(results))
	}
	// The same two ranges and an unknown subscription's in one batched
	// call: answered in order, the bad range alone carrying an error.
	batch, err := client.ResultsBatchContext(context.Background(), []ResultRange{
		{SubscriptionID: sub, ToNS: int64(latest), Inclusive: true},
		{SubscriptionID: sub, ToNS: int64(latest)},
		{SubscriptionID: "nope", ToNS: int64(latest), Inclusive: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 3 || len(batch[0].Results) != 1 || batch[0].Results[0].ID != wantID ||
		len(batch[1].Results) != 0 || batch[0].Error+batch[1].Error != "" || batch[2].Error == "" {
		t.Errorf("batched results = %+v", batch)
	}
	// More ranges than the cap are refused outright; the caller splits.
	var se *httpx.StatusError
	if _, err := client.ResultsBatchContext(context.Background(), make([]ResultRange, MaxResultRanges+1)); !errors.As(err, &se) || se.Status != http.StatusBadRequest {
		t.Errorf("oversized batch: err = %v, want 400", err)
	}
	if _, err := client.ResultsBatchContext(context.Background(), make([]ResultRange, MaxResultRanges)); err != nil {
		t.Errorf("batch at the cap: %v", err)
	}

	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ingested != 1 || stats.ResultsProduced != 1 || stats.Subscriptions != 1 {
		t.Errorf("stats = %+v", stats)
	}

	if err := client.Unsubscribe(sub); err != nil {
		t.Fatal(err)
	}
	if err := client.Unsubscribe(sub); err == nil {
		t.Error("double unsubscribe should 404")
	}
}

func TestServerErrorPaths(t *testing.T) {
	client, _, _ := newTestServer(t)
	if _, err := client.Ingest("nope", map[string]any{"a": 1}); err == nil {
		t.Error("ingest to unknown dataset should fail")
	}
	if err := client.DefineChannel(ChannelDef{Name: "x", Body: "bad"}); err == nil {
		t.Error("bad channel body should fail")
	}
	if _, err := client.Subscribe("nope", nil, ""); err == nil {
		t.Error("unknown channel should fail")
	}
	if _, err := client.Results("nope", 0, 0, true); err == nil {
		t.Error("unknown subscription should fail")
	}
	if _, err := client.LatestTimestamp("nope"); err == nil {
		t.Error("unknown subscription latest should fail")
	}
}

func TestServerResultsBadQuery(t *testing.T) {
	_, cluster, _ := newTestCluster2(t)
	srv := httptest.NewServer(NewServer(cluster).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/subscriptions/x/results?from_ns=abc&to_ns=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}

// newTestCluster2 adapts newTestCluster's signature for reuse.
func newTestCluster2(t *testing.T) (struct{}, *Cluster, *testClock) {
	c, clk := newTestCluster(t)
	return struct{}{}, c, clk
}

func TestWebhookNotifierDelivers(t *testing.T) {
	var mu sync.Mutex
	var got []NotificationPayload
	cb := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entries, err := ReadCallback(r)
		if err != nil {
			t.Error(err)
		}
		mu.Lock()
		got = append(got, entries...)
		mu.Unlock()
		httpx.WriteJSON(w, http.StatusOK, CallbackResponse{})
	}))
	defer cb.Close()

	// Ten subscriptions, one notification each: ten entries arrive, in
	// however many envelopes the POSTs in flight made of them.
	n := NewWebhookNotifier(2, 64, cb.Client())
	for i := 0; i < 10; i++ {
		n.NotifyContext(context.Background(), fmt.Sprintf("sub-%d", i), cb.URL, time.Duration(i)*time.Second)
	}
	n.Close()

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 10 || n.Stats().Delivered.Load() != 10 {
		t.Fatalf("delivered %d entries (%d counted), want 10", len(got), n.Stats().Delivered.Load())
	}
	for i, p := range got {
		if p.SubscriptionID != fmt.Sprintf("sub-%d", i) || p.LatestNS != int64(time.Duration(i)*time.Second) {
			t.Errorf("entry %d = %+v", i, p)
		}
	}
}

func TestWebhookNotifierEmptyCallback(t *testing.T) {
	n := NewWebhookNotifier(1, 16, nil)
	defer n.Close()
	n.NotifyContext(context.Background(), "sub", "", time.Second) // must not enqueue or panic
	if n.Stats().Dropped.Load() != 0 {
		t.Error("empty callback should be ignored, not dropped")
	}
}

func TestWebhookNotifierCloseIdempotent(t *testing.T) {
	n := NewWebhookNotifier(1, 16, nil)
	n.Close()
	n.Close()                                                 // second close must not panic
	n.NotifyContext(context.Background(), "s", "http://x", 0) // post-close notify must not panic
}

func TestWebhookNotifierQueueSheds(t *testing.T) {
	// A blocked callback lets the outbox fill to queueCap entries and shed:
	// the cap counts entries, so a subscription that already has one pending
	// still merges into it, and a slow broker holds at most one entry per
	// subscription.
	release := make(chan struct{})
	arrived := make(chan struct{}, 2)
	var once sync.Once
	cb := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		arrived <- struct{}{}
		<-release
		httpx.WriteJSON(w, http.StatusOK, CallbackResponse{})
	}))
	defer cb.Close()
	defer once.Do(func() { close(release) })

	n := NewWebhookNotifier(1, 16, cb.Client())
	for i := 0; i < 200; i++ {
		n.NotifyContext(context.Background(), fmt.Sprintf("sub-%d", i), cb.URL, time.Duration(i))
		if i == 0 {
			<-arrived // the first entry is in flight; the rest pile up behind it
		}
	}
	if got := n.Stats().Dropped.Load(); got != 200-16 {
		t.Errorf("dropped = %d, want %d: all but queueCap entries shed under a blocked consumer", got, 200-16)
	}
	n.NotifyContext(context.Background(), "sub-15", cb.URL, time.Hour)
	if s := n.Stats(); s.Coalesced.Load() != 1 || s.Dropped.Load() != 200-16 {
		t.Errorf("coalesced %d dropped %d, want 1 and %d: a pending subscription merges at the cap",
			s.Coalesced.Load(), s.Dropped.Load(), 200-16)
	}
	once.Do(func() { close(release) })
	n.Close()
	if got := n.Stats().Delivered.Load(); got != 17 {
		t.Errorf("delivered = %d, want the 16 held entries' 17 notifications", got)
	}
}

func TestClusterWithWebhookNotifierEndToEnd(t *testing.T) {
	received := make(chan NotificationPayload, 8)
	cb := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var p NotificationPayload
		if err := httpx.ReadJSON(r, &p); err == nil {
			received <- p
		}
		httpx.WriteJSON(w, http.StatusOK, CallbackResponse{})
	}))
	defer cb.Close()

	notifier := NewWebhookNotifier(1, 16, cb.Client())
	defer notifier.Close()
	clk := &testClock{}
	c := NewCluster(WithClock(clk.Now), WithNotifier(notifier))
	if err := c.CreateDataset("DS", Schema{}); err != nil {
		t.Fatal(err)
	}
	if err := c.DefineChannel(ChannelDef{Name: "All", Body: "select * from DS"}); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe("All", nil, cb.URL)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	mustIngest(t, c, "DS", map[string]any{"x": 1.0})

	select {
	case p := <-received:
		if p.SubscriptionID != sub {
			t.Errorf("notified sub = %s, want %s", p.SubscriptionID, sub)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("webhook notification never arrived")
	}
}

func TestServerQueryAndDeleteChannel(t *testing.T) {
	client, _, clk := newTestServer(t)
	if err := client.CreateDataset("DS", Schema{}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	for i := 0; i < 3; i++ {
		if _, err := client.Ingest("DS", map[string]any{"x": float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := client.Query("select sum(r.x) as s from DS r", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["s"] != 3.0 {
		t.Errorf("rows = %v", rows)
	}
	if _, err := client.Query("broken", nil); err == nil {
		t.Error("bad query should fail over REST")
	}

	if err := client.DefineChannel(ChannelDef{Name: "All", Body: "select * from DS"}); err != nil {
		t.Fatal(err)
	}
	if err := client.DeleteChannel("All"); err != nil {
		t.Fatal(err)
	}
	if err := client.DeleteChannel("All"); err == nil {
		t.Error("double delete should fail over REST")
	}
}
