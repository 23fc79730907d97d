package bdms

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// logProbe is what one run of groupLogProbe measured.
type logProbe struct {
	snapshot int64         // bytes of the compacted snapshot
	entries  int           // entries in the shared group's result log
	reopen   time.Duration // recovering the store from that snapshot
}

// groupLogProbe subscribes members equal subscriptions to one group of a
// store-backed cluster, ingests n 400-byte publications that all match it,
// compacts and reopens.
func groupLogProbe(t *testing.T, members, n int) logProbe {
	t.Helper()
	dir := t.TempDir()
	clk := &testClock{}
	st, err := OpenStore(dir, StoreConfig{}, WithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	c := st.Cluster()
	fire := fillGroup(t, c, clk, members, n)
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	p := logProbe{snapshot: int64(st.Stats().SnapshotBytes.Value()), entries: logLen(c, fire)}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	re, err := OpenStore(dir, StoreConfig{}, WithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	p.reopen = time.Since(start)
	defer re.Close()
	if got := logLen(re.Cluster(), fire); got != p.entries {
		t.Fatalf("%d members: the reopened log holds %d entries, the live one %d", members, got, p.entries)
	}
	return p
}

// fillGroup subscribes members equal subscriptions to Alerts("fire"), and
// one to Alerts("flood"), then ingests n 400-byte publications that match
// the fire group alone. It returns the last fire subscription.
func fillGroup(t *testing.T, c *Cluster, clk *testClock, members, n int) string {
	t.Helper()
	if err := c.CreateDataset("Pubs", Schema{}); err != nil {
		t.Fatal(err)
	}
	if err := c.DefineChannel(ChannelDef{Name: "Alerts", Params: []string{"etype"},
		Body: "select * from Pubs r where r.etype = $etype"}); err != nil {
		t.Fatal(err)
	}
	var fire string
	var err error
	for i := 0; i < members; i++ {
		if fire, err = c.Subscribe("Alerts", []any{"fire"}, "http://broker/cb"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err = c.Subscribe("Alerts", []any{"flood"}, "http://broker/cb"); err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 360)
	for i := 0; i < n; i++ {
		clk.Advance(time.Millisecond)
		mustIngest(t, c, "Pubs", map[string]any{"etype": "fire", "n": float64(i), "pad": pad})
	}
	return fire
}

// logLen is the length of the result log subID reads.
func logLen(c *Cluster, subID string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.subs[subID].group.results)
}

// TestGroupLogIsShared: equal subscriptions read one result log. With four
// members of one group instead of one, the log holds one entry per
// publication, the snapshot grows by the three subscriptions' records
// alone, and a Subscribe into a group with a long history allocates what
// one into a group without history does: joining copies nothing.
func TestGroupLogIsShared(t *testing.T) {
	const n = 20000
	one := groupLogProbe(t, 1, n)
	four := groupLogProbe(t, 4, n)
	t.Logf("1 member: %d log entries, snapshot %d bytes, reopen %v", one.entries, one.snapshot, one.reopen)
	t.Logf("4 members: %d log entries, snapshot %d bytes, reopen %v", four.entries, four.snapshot, four.reopen)
	if one.entries != n || four.entries != n {
		t.Errorf("logs hold %d (1 member) and %d (4 members) entries, want %d each", one.entries, four.entries, n)
	}
	if float64(four.snapshot) > 1.1*float64(one.snapshot) {
		t.Errorf("4 members' snapshot is %d bytes, more than 10%% over 1 member's %d", four.snapshot, one.snapshot)
	}

	// Allocations are counted process-wide, so this cluster has no store,
	// whose tickers would allocate beside the measured calls.
	c, clk := newTestCluster(t)
	fillGroup(t, c, clk, 4, n)
	join := func(etype string) func() {
		return func() {
			id, err := c.Subscribe("Alerts", []any{etype}, "http://broker/cb")
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Unsubscribe(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	empty := testing.AllocsPerRun(100, join("flood"))
	full := testing.AllocsPerRun(100, join("fire"))
	if full != empty {
		t.Errorf("Subscribe+Unsubscribe allocates %v times into a group of %d results, %v into one of none", full, n, empty)
	}
}

// TestEmptyLogNamedAlikeOnEveryRoute: when the subscription that opened a
// group leaves before the group produced anything, the live cluster and
// one replayed from its snapshot, which names the log after the member it
// lists first, mint the same result IDs.
func TestEmptyLogNamedAlikeOnEveryRoute(t *testing.T) {
	c, clk := newTestCluster(t)
	if err := c.CreateDataset("Pubs", Schema{}); err != nil {
		t.Fatal(err)
	}
	if err := c.DefineChannel(ChannelDef{Name: "Alerts", Params: []string{"etype"},
		Body: "select * from Pubs r where r.etype = $etype"}); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for range 3 {
		id, err := c.Subscribe("Alerts", []any{"fire"}, "http://broker/cb")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// The opener leaves; the swap puts the last member in its slot.
	if err := c.Unsubscribe(ids[0]); err != nil {
		t.Fatal(err)
	}
	recs, _, _, err := readWAL(bytes.NewReader(compacted(t, c)))
	if err != nil {
		t.Fatal(err)
	}
	rc := NewCluster(WithClock(clk.Now))
	if err := rc.replayWAL(recs); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	for _, c := range []*Cluster{c, rc} {
		mustIngest(t, c, "Pubs", map[string]any{"etype": "fire"})
		res, err := c.Results(ids[2], 0, clk.Now(), true)
		if err != nil {
			t.Fatal(err)
		}
		if want := ids[1] + "-r000001"; len(res) != 1 || res[0].ID != want {
			t.Fatalf("results %+v, want one with ID %s", res, want)
		}
	}
}
