package bdms

import (
	"context"
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

func TestPushModelDeliversResultObjects(t *testing.T) {
	col := &pushCollector{}
	c, clk := newTestCluster(t, WithNotifier(col), WithPushModel())
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
	if pulls != 0 || pushes != 1 {
		t.Fatalf("pulls=%d pushes=%d, want 0/1", pulls, pushes)
	}
	col.mu.Lock()
	obj := col.pushes[0]
	col.mu.Unlock()
	if rows := rowsOf(t, obj); len(rows) != 1 || rows[0]["etype"] != "fire" {
		t.Errorf("pushed object rows = %s", obj.Rows)
	}
	if obj.Size <= 0 {
		t.Error("pushed object should carry its size")
	}
}

func TestPushModelFallsBackToPullForPlainNotifier(t *testing.T) {
	// A notifier without NotifyPushContext gets PULL deliveries even when the
	// cluster is configured for PUSH.
	col := &collectNotifier{}
	c, clk := newTestCluster(t, WithNotifier(col), WithPushModel())
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
	// Without WithPushModel, even a push-capable notifier gets pulls.
	col := &pushCollector{}
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
	pulls, pushes := col.counts()
	if pulls != 1 || pushes != 0 {
		t.Errorf("pulls=%d pushes=%d, want 1/0", pulls, pushes)
	}
}
