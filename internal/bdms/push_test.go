package bdms

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// pushCollector records both delivery models.
type pushCollector struct {
	mu     sync.Mutex
	pulls  []NotificationPayload
	pushes []ResultObject
}

func (p *pushCollector) NotifyContext(_ context.Context, subID, _ string, latest time.Duration) {
	p.mu.Lock()
	p.pulls = append(p.pulls, NotificationPayload{SubscriptionID: subID, LatestNS: int64(latest)})
	p.mu.Unlock()
}

func (p *pushCollector) NotifyPushContext(_ context.Context, _, _ string, obj ResultObject) {
	p.mu.Lock()
	p.pushes = append(p.pushes, obj)
	p.mu.Unlock()
}

func (p *pushCollector) counts() (pulls, pushes int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pulls), len(p.pushes)
}

// TestPushModelDeliversResultObjects: PUSH is the default, and each pushed
// object names its predecessor — 0 for the subscription's first result —
// while the range read of the same results names none.
func TestPushModelDeliversResultObjects(t *testing.T) {
	col := &pushCollector{}
	c, clk := newTestCluster(t, WithNotifier(col))
	setupEmergencyCluster(t, c)
	if err := c.DefineChannel(ChannelDef{
		Name: "All", Body: "select * from EmergencyReports",
	}); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe("All", nil, "cb")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		clk.Advance(time.Second)
		mustIngest(t, c, "EmergencyReports", report("fire", 3, 33, -117))
	}
	pulls, pushes := col.counts()
	if pulls != 0 || pushes != 3 {
		t.Fatalf("pulls=%d pushes=%d, want 0/3", pulls, pushes)
	}
	col.mu.Lock()
	objs := append([]ResultObject(nil), col.pushes...)
	col.mu.Unlock()
	if rows := rowsOf(t, objs[0]); len(rows) != 1 || rows[0]["etype"] != "fire" {
		t.Errorf("pushed object rows = %s", objs[0].Rows)
	}
	if objs[0].Size <= 0 {
		t.Error("pushed object should carry its size")
	}
	for i, obj := range objs {
		want := int64(0)
		if i > 0 {
			want = int64(objs[i-1].Timestamp)
		}
		if obj.PrevNS != want {
			t.Errorf("push %d names predecessor %d, want %d", i, obj.PrevNS, want)
		}
	}
	read, err := c.Results(sub, 0, clk.Now(), true)
	if err != nil || len(read) != 3 {
		t.Fatalf("range read = %d results, %v", len(read), err)
	}
	for _, obj := range read {
		if obj.PrevNS != 0 {
			t.Errorf("range read of %s names predecessor %d, want none", obj.ID, obj.PrevNS)
		}
	}
}

func TestPushModelFallsBackToPullForPlainNotifier(t *testing.T) {
	// A notifier without NotifyPushContext gets PULL deliveries under the
	// default PUSH model.
	col := &collectNotifier{}
	c, clk := newTestCluster(t, WithNotifier(col))
	setupEmergencyCluster(t, c)
	if err := c.DefineChannel(ChannelDef{
		Name: "All", Body: "select * from EmergencyReports",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe("All", nil, "cb"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	mustIngest(t, c, "EmergencyReports", report("fire", 3, 33, -117))
	if col.count() != 1 {
		t.Errorf("fallback pull notifications = %d, want 1", col.count())
	}
}

func TestPullModelIgnoresPushCapability(t *testing.T) {
	// WithPullModel: even a push-capable notifier gets pulls.
	col := &pushCollector{}
	c, clk := newTestCluster(t, WithNotifier(col), WithPullModel())
	setupEmergencyCluster(t, c)
	if err := c.DefineChannel(ChannelDef{
		Name: "All", Body: "select * from EmergencyReports",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe("All", nil, "cb"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	mustIngest(t, c, "EmergencyReports", report("fire", 3, 33, -117))
	pulls, pushes := col.counts()
	if pulls != 1 || pushes != 0 {
		t.Errorf("pulls=%d pushes=%d, want 1/0", pulls, pushes)
	}
}

// blockingNotifier reports each push as it arrives and then holds it until
// released.
type blockingNotifier struct {
	arrived chan string
	release chan struct{}
}

func (n *blockingNotifier) NotifyContext(context.Context, string, string, time.Duration) {}

func (n *blockingNotifier) NotifyPushContext(_ context.Context, subID, _ string, _ ResultObject) {
	n.arrived <- subID
	<-n.release
}

// TestIngestAnswersBeforeNotifying: over HTTP the publisher has its 201
// while the publication's notification is still held in the notifier — the
// answer leaves first — for a record and a batch alike. In process,
// IngestContext returns only once the notifier has.
func TestIngestAnswersBeforeNotifying(t *testing.T) {
	n := &blockingNotifier{arrived: make(chan string, 1), release: make(chan struct{})}
	c, clk := newTestCluster(t, WithNotifier(n))
	setupEmergencyCluster(t, c)
	if err := c.DefineChannel(ChannelDef{Name: "All", Body: "select * from EmergencyReports"}); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe("All", nil, "cb")
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(c).Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(func() { close(n.release) }) // runs first: frees a held handler
	client := NewClient(srv.URL, srv.Client())
	wait := func(what string, ch <-chan error) {
		t.Helper()
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not return while its notification was held", what)
		}
	}
	arrived := func(what string) {
		t.Helper()
		select {
		case got := <-n.arrived:
			if got != sub {
				t.Errorf("%s notified %s, want %s", what, got, sub)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: the notification never reached the notifier", what)
		}
	}

	for _, route := range []struct {
		name   string
		ingest func() error
	}{
		{"POST records", func() error {
			_, err := client.Ingest("EmergencyReports", report("fire", 3, 33, -117))
			return err
		}},
		{"POST records:batch", func() error {
			_, err := client.IngestBatch("EmergencyReports", []map[string]any{report("flood", 2, 34, -118)})
			return err
		}},
	} {
		clk.Advance(time.Second)
		done := make(chan error, 1)
		go func() { done <- route.ingest() }()
		wait(route.name, done)
		arrived(route.name)
		n.release <- struct{}{}
	}

	clk.Advance(time.Second)
	done := make(chan error, 1)
	go func() {
		_, err := c.IngestContext(context.Background(), "EmergencyReports", report("quake", 5, 35, -119))
		done <- err
	}()
	arrived("IngestContext")
	select {
	case <-done:
		t.Fatal("IngestContext returned before its notification was delivered")
	case <-time.After(20 * time.Millisecond):
	}
	n.release <- struct{}{}
	wait("IngestContext", done)
}
