package bdms

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// clusterState renders what recovery must restore: every subscription's
// result dataset (IDs included), every dataset's records, the
// subscription and group counts and the next repetitive run.
func clusterState(t *testing.T, c *Cluster) string {
	t.Helper()
	c.mu.Lock()
	subs := sortedKeys(c.subs)
	c.mu.Unlock()
	var b strings.Builder
	for _, id := range subs {
		fmt.Fprintf(&b, "%s %s\n", id, resultsJSON(t, c, id))
	}
	for _, name := range c.DatasetNames() {
		recs, err := json.Marshal(c.Dataset(name).ScanSince(0))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %s\n", name, recs)
	}
	next, ok := c.NextRepetitiveRun()
	fmt.Fprintf(&b, "subs %d, groups %d, next run %v %v\n", c.NumSubscriptions(), c.NumEvalGroups(), next, ok)
	return b.String()
}

// routeHistory is one seeded history touching every record kind: a
// continuous and a repetitive channel, a late joiner seeded from its
// group's history, an empty publication, a channel deletion, the eldest
// member leaving a group, and an unsubscribe of the highest-numbered
// subscription. It ends at 1h52m, with
// the repetitive group's last run at 1h02m.
func routeHistory() []func(t *testing.T, c *Cluster, clk *testClock) {
	ok := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	subscribe := func(t *testing.T, c *Cluster, channel string, params ...any) string {
		t.Helper()
		id, err := c.Subscribe(channel, params, "http://broker/cb")
		ok(t, err)
		return id
	}
	ingest := func(t *testing.T, c *Cluster, clk *testClock, etypes ...string) {
		t.Helper()
		for i, e := range etypes {
			clk.Advance(time.Second)
			mustIngest(t, c, "Reports", map[string]any{"etype": e, "n": float64(i)})
		}
	}
	var high string
	return []func(t *testing.T, c *Cluster, clk *testClock){
		func(t *testing.T, c *Cluster, clk *testClock) {
			ok(t, c.CreateDataset("Reports", Schema{}))
			ok(t, c.DefineChannel(ChannelDef{Name: "Alerts", Params: []string{"etype"},
				Body: "select * from Reports r where r.etype = $etype"}))
			ok(t, c.DefineChannel(ChannelDef{Name: "Digest", Body: "select * from Reports r", Period: time.Hour}))
			ok(t, c.DefineChannel(ChannelDef{Name: "Scratch", Body: "select * from Reports r"}))
		},
		func(t *testing.T, c *Cluster, clk *testClock) {
			clk.Advance(2 * time.Minute)
			subscribe(t, c, "Alerts", "fire")
			subscribe(t, c, "Alerts", "flood")
			subscribe(t, c, "Digest")
		},
		func(t *testing.T, c *Cluster, clk *testClock) { ingest(t, c, clk, "fire", "flood", "fire", "quake") },
		func(t *testing.T, c *Cluster, clk *testClock) {
			clk.Advance(time.Hour + 2*time.Minute - clk.Now())
			if n := c.RunRepetitiveDue(); n != 1 {
				t.Fatalf("%d repetitive runs at %v, want 1", n, clk.Now())
			}
		},
		func(t *testing.T, c *Cluster, clk *testClock) {
			subscribe(t, c, "Alerts", "fire") // the late joiner
			ingest(t, c, clk, "fire", "flood")
			clk.Advance(time.Second)
			mustIngest(t, c, "Reports", map[string]any{})
		},
		func(t *testing.T, c *Cluster, clk *testClock) { ok(t, c.DeleteChannel("Scratch")) },
		func(t *testing.T, c *Cluster, clk *testClock) {
			subscribe(t, c, "Alerts", "fire")
			high = subscribe(t, c, "Alerts", "quake")
			ingest(t, c, clk, "quake", "fire")
		},
		func(t *testing.T, c *Cluster, clk *testClock) {
			// The fire group's eldest leaves: its members are no longer
			// in ID order.
			ok(t, c.Unsubscribe("bsub-000001"))
			ok(t, c.Unsubscribe(high))
			clk.Advance(1*time.Hour + 52*time.Minute - clk.Now())
		},
	}
}

// TestRecoveryRoutesAgree: a WAL-only reopen and compaction at several
// points followed by a reopen recover the cluster the live run holds —
// result datasets with their IDs, datasets, counts, the next repetitive run
// (the last run plus the period, not the restart plus the period) — and
// the recovered cluster goes on as the live one does: the next Subscribe
// mints the same ID and is seeded with the same history, and the late
// joiner's next result gets the same ID.
func TestRecoveryRoutesAgree(t *testing.T) {
	// then is what both clusters do after the restart.
	then := func(t *testing.T, c *Cluster) {
		if _, err := c.Subscribe("Alerts", []any{"fire"}, "http://broker/cb"); err != nil {
			t.Fatal(err)
		}
		mustIngest(t, c, "Reports", map[string]any{"etype": "fire"})
	}
	clk := &testClock{}
	live := NewCluster(WithClock(clk.Now))
	for _, ev := range routeHistory() {
		ev(t, live, clk)
	}
	want := clusterState(t, live)
	if !strings.Contains(want, "next run 2h2m0s true") {
		t.Fatalf("live history did not run Digest at 1h02m:\n%s", want)
	}
	then(t, live)
	wantThen := clusterState(t, live)

	for _, tc := range []struct {
		name      string
		compactAt []int // event indices after which Compact runs
	}{
		{name: "wal-only"},
		{name: "compact-mid", compactAt: []int{2, 4, 6}},
		{name: "compact-last", compactAt: []int{7}},
		{name: "compact-every-event", compactAt: []int{0, 1, 2, 3, 4, 5, 6, 7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			clk := &testClock{}
			st, err := OpenStore(dir, StoreConfig{}, WithClock(clk.Now))
			if err != nil {
				t.Fatal(err)
			}
			for i, ev := range routeHistory() {
				ev(t, st.Cluster(), clk)
				for _, at := range tc.compactAt {
					if at == i {
						if err := st.Compact(); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			rec, err := OpenStore(dir, StoreConfig{}, WithClock(clk.Now))
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			if got := clusterState(t, rec.Cluster()); got != want {
				t.Fatalf("recovered\n%s\nlive\n%s", got, want)
			}
			then(t, rec.Cluster())
			if got := clusterState(t, rec.Cluster()); got != wantThen {
				t.Errorf("after the restart, recovered\n%s\nlive\n%s", got, wantThen)
			}
		})
	}
}

// TestStoreRefusesHoleInHistory: with the only snapshot unreadable, the
// segments it covered are gone, and recovery fails naming the first
// missing one instead of opening on the tail alone.
func TestStoreRefusesHoleInHistory(t *testing.T) {
	dir := t.TempDir()
	clk := &testClock{}
	st, err := OpenStore(dir, storeCfg(), WithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	c := st.Cluster()
	seedStoreWorkload(t, c, clk, 4)
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateDataset("Other", Schema{}); err != nil {
		t.Fatal(err)
	}
	mustIngest(t, c, "Other", map[string]any{"x": 1.0})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapPath(dir, 1), []byte("GARBAGE\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := OpenStore(dir, storeCfg(), WithClock(clk.Now))
	if err == nil {
		defer rec.Close()
		t.Fatalf("opened with datasets %v and %d subscriptions, want a missing-segment error",
			rec.Cluster().DatasetNames(), rec.Cluster().NumSubscriptions())
	}
	if !strings.Contains(err.Error(), "segment 1 is missing") {
		t.Errorf("open = %v, want it to name segment 1", err)
	}
}

// TestCompactDuringIngest compacts in a loop while publications arrive one
// by one and in batches, subscriptions come and go and the repetitive
// channel runs, as the compaction ticker does beside live traffic; the
// reopened store must hold what the live cluster held.
func TestCompactDuringIngest(t *testing.T) {
	dir := t.TempDir()
	clk := &testClock{}
	st, err := OpenStore(dir, StoreConfig{}, WithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	c := st.Cluster()
	seedStoreWorkload(t, c, clk, 3)
	if err := c.DefineChannel(ChannelDef{Name: "Digest", Body: "select * from EmergencyReports r", Period: time.Second}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe("Digest", nil, "http://broker/cb"); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	loop := func(n int, step func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := step(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	etypes := []string{"fire", "flood", "quake"}
	loop(200, func(i int) error {
		clk.Advance(time.Millisecond)
		_, err := c.Ingest("EmergencyReports", map[string]any{"etype": etypes[i%3], "n": float64(i)})
		return err
	})
	loop(100, func(i int) error {
		_, err := c.IngestBatch("EmergencyReports", []map[string]any{
			{"etype": "fire", "b": float64(i)}, {"etype": etypes[i%3], "b": float64(i)},
		})
		return err
	})
	loop(60, func(i int) error {
		id, err := c.Subscribe("Alerts", []any{etypes[i%3]}, "http://broker/cb")
		if err == nil && i%10 != 0 {
			err = c.Unsubscribe(id)
		}
		return err
	})
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for compacting := true; compacting; {
		if err := st.Compact(); err != nil {
			t.Fatal(err)
		}
		clk.Advance(500 * time.Millisecond)
		c.RunRepetitiveDue()
		select {
		case <-done:
			compacting = false
		case <-time.After(time.Millisecond):
		}
	}
	want := clusterState(t, c)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := OpenStore(dir, StoreConfig{}, WithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := clusterState(t, rec.Cluster()); got != want {
		t.Errorf("recovered\n%s\nlive\n%s", got, want)
	}
}
