package bdms

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// storeOpts returns the default test store config: fsync-per-append so a
// simulated crash (abandoning the store without Close) loses nothing that
// was acknowledged.
func storeCfg() StoreConfig {
	return StoreConfig{Sync: SyncAlways}
}

// seedStoreWorkload drives the canonical durability workload against a
// cluster: a continuous channel, two subscriptions, and n matching ingests
// interleaved with non-matching noise. It returns the subscription IDs.
func seedStoreWorkload(t *testing.T, c *Cluster, clk *testClock, n int) (string, string) {
	t.Helper()
	if err := c.CreateDataset("EmergencyReports", Schema{}); err != nil {
		t.Fatal(err)
	}
	if err := c.DefineChannel(ChannelDef{
		Name:   "Alerts",
		Params: []string{"etype"},
		Body:   "select * from EmergencyReports r where r.etype = $etype",
	}); err != nil {
		t.Fatal(err)
	}
	subFire, err := c.Subscribe("Alerts", []any{"fire"}, "http://broker/cb")
	if err != nil {
		t.Fatal(err)
	}
	subFlood, err := c.Subscribe("Alerts", []any{"flood"}, "http://broker/cb")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		clk.Advance(time.Second)
		etype := "fire"
		if i%3 == 1 {
			etype = "flood"
		} else if i%3 == 2 {
			etype = "tornado" // matches neither subscription
		}
		mustIngest(t, c, "EmergencyReports", map[string]any{
			"etype": etype, "severity": float64(i),
		})
	}
	return subFire, subFlood
}

// resultsJSON serializes a subscription's full result dataset for
// byte-identity comparisons.
func resultsJSON(t *testing.T, c *Cluster, sub string) []byte {
	t.Helper()
	res, err := c.Results(sub, 0, 1<<62, true)
	if err != nil {
		t.Fatalf("results %s: %v", sub, err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// copyDir clones a store directory so a crash point can be examined
// without disturbing the live store.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestStoreKillMidBatchByteIdentical is the cluster half of the chaos
// drill: the process dies (kill -9 — no Close, no final sync beyond the
// per-append fsync) in the middle of appending a batch, leaving a torn
// record at the segment tail. Replay must reconstruct the result datasets
// byte-for-byte as they were at the last durable append, count the torn
// tail, and keep accepting writes.
func TestStoreKillMidBatchByteIdentical(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, storeCfg(), WithClock((&testClock{}).Now))
	if err != nil {
		t.Fatal(err)
	}
	clk := &testClock{}
	st.cluster.clock = clk.Now
	subFire, subFlood := seedStoreWorkload(t, st.cluster, clk, 30)
	wantFire := resultsJSON(t, st.cluster, subFire)
	wantFlood := resultsJSON(t, st.cluster, subFlood)
	if len(wantFire) <= len("[]") {
		t.Fatal("workload produced no fire results")
	}

	// Freeze the crash point: clone the directory as the dying process left
	// it and append half of a batch record — the classic torn tail.
	crashDir := copyDir(t, dir)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(crashDir, "wal-000001.jsonl")
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"ingest","dataset":"EmergencyReports","data":{"ety`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, err := OpenStore(crashDir, storeCfg(), WithClock(clk.Now))
	if err != nil {
		t.Fatalf("replay after crash: %v", err)
	}
	defer recovered.Close()
	if got := recovered.WALStats().TornTails.Value(); got != 1 {
		t.Errorf("bad_wal_torn_tail_total = %v, want 1", got)
	}
	if got := resultsJSON(t, recovered.Cluster(), subFire); string(got) != string(wantFire) {
		t.Errorf("fire results diverged after replay:\n got %s\nwant %s", got, wantFire)
	}
	if got := resultsJSON(t, recovered.Cluster(), subFlood); string(got) != string(wantFlood) {
		t.Errorf("flood results diverged after replay:\n got %s\nwant %s", got, wantFlood)
	}
	// The truncated tail must not poison subsequent appends.
	mustIngest(t, recovered.Cluster(), "EmergencyReports", map[string]any{"etype": "fire"})
	if res, err := recovered.Cluster().Results(subFire, 0, 1<<62, true); err != nil || len(res) == 0 {
		t.Errorf("post-recovery ingest invisible: %d results, err %v", len(res), err)
	}
}

// TestStoreSnapshotTailEquivalence proves the compaction invariant: for
// any placement of snapshot points in the event sequence, snapshot +
// WAL-tail replay reconstructs exactly the state a pure WAL replay would.
func TestStoreSnapshotTailEquivalence(t *testing.T) {
	const events = 24
	cases := []struct {
		name      string
		compactAt []int // event indices after which Compact runs
		reopenMid bool  // also close+reopen halfway through
	}{
		{name: "no-compaction", compactAt: nil},
		{name: "compact-early", compactAt: []int{3}},
		{name: "compact-late", compactAt: []int{events - 2}},
		{name: "compact-twice", compactAt: []int{8, 16}},
		{name: "compact-every-batch", compactAt: []int{4, 8, 12, 16, 20}},
		{name: "compact-and-reopen", compactAt: []int{10}, reopenMid: true},
	}

	// Reference: the same workload on a plain in-memory cluster.
	refClk := &testClock{}
	ref := NewCluster(WithClock(refClk.Now))
	refFire, refFlood := seedStoreWorkload(t, ref, refClk, events)
	wantFire := resultsJSON(t, ref, refFire)
	wantFlood := resultsJSON(t, ref, refFlood)

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			clk := &testClock{}
			st, err := OpenStore(dir, storeCfg(), WithClock(clk.Now))
			if err != nil {
				t.Fatal(err)
			}
			c := st.Cluster()
			if err := c.CreateDataset("EmergencyReports", Schema{}); err != nil {
				t.Fatal(err)
			}
			if err := c.DefineChannel(ChannelDef{
				Name:   "Alerts",
				Params: []string{"etype"},
				Body:   "select * from EmergencyReports r where r.etype = $etype",
			}); err != nil {
				t.Fatal(err)
			}
			subFire, err := c.Subscribe("Alerts", []any{"fire"}, "http://broker/cb")
			if err != nil {
				t.Fatal(err)
			}
			subFlood, err := c.Subscribe("Alerts", []any{"flood"}, "http://broker/cb")
			if err != nil {
				t.Fatal(err)
			}
			compact := make(map[int]bool, len(tc.compactAt))
			for _, i := range tc.compactAt {
				compact[i] = true
			}
			for i := 0; i < events; i++ {
				clk.Advance(time.Second)
				etype := "fire"
				if i%3 == 1 {
					etype = "flood"
				} else if i%3 == 2 {
					etype = "tornado"
				}
				mustIngest(t, c, "EmergencyReports", map[string]any{
					"etype": etype, "severity": float64(i),
				})
				if compact[i] {
					if err := st.Compact(); err != nil {
						t.Fatalf("compact after event %d: %v", i, err)
					}
				}
				if tc.reopenMid && i == events/2 {
					if err := st.Close(); err != nil {
						t.Fatal(err)
					}
					st, err = OpenStore(dir, storeCfg(), WithClock(clk.Now))
					if err != nil {
						t.Fatalf("mid-sequence reopen: %v", err)
					}
					c = st.Cluster()
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			recovered, err := OpenStore(dir, storeCfg(), WithClock(clk.Now))
			if err != nil {
				t.Fatalf("final reopen: %v", err)
			}
			defer recovered.Close()
			rc := recovered.Cluster()
			if got := resultsJSON(t, rc, subFire); string(got) != string(wantFire) {
				t.Errorf("fire results != reference\n got %s\nwant %s", got, wantFire)
			}
			if got := resultsJSON(t, rc, subFlood); string(got) != string(wantFlood) {
				t.Errorf("flood results != reference\n got %s\nwant %s", got, wantFlood)
			}
			if got, want := rc.Dataset("EmergencyReports").Len(), ref.Dataset("EmergencyReports").Len(); got != want {
				t.Errorf("dataset length %d, want %d", got, want)
			}
			if got, want := rc.NumSubscriptions(), ref.NumSubscriptions(); got != want {
				t.Errorf("subscriptions %d, want %d", got, want)
			}
			if len(tc.compactAt) > 0 && recovered.Stats() != nil {
				// Compaction must actually have pruned: the only live segment
				// is the current one.
				segs, _, err := recovered.scanDir()
				if err != nil {
					t.Fatal(err)
				}
				if len(segs) > 2 {
					t.Errorf("%d segments survive compaction, want <= 2", len(segs))
				}
			}
		})
	}
}

// TestStoreCrashMatrix sweeps crash points through the WAL segment: the
// log is truncated at every line boundary (and, under -run with
// CRASH_MATRIX=full, at midpoints inside each line — torn tails), and each
// truncation must replay cleanly to a prefix of the full history. This is
// the property behind `make crash-matrix`.
func TestStoreCrashMatrix(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, storeCfg(), WithClock((&testClock{}).Now))
	if err != nil {
		t.Fatal(err)
	}
	clk := &testClock{}
	st.cluster.clock = clk.Now
	subFire, _ := seedStoreWorkload(t, st.cluster, clk, 12)
	full, err := st.cluster.Results(subFire, 0, 1<<62, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segName := "wal-000001.jsonl"
	data, err := os.ReadFile(filepath.Join(dir, segName))
	if err != nil {
		t.Fatal(err)
	}

	// Crash points: after every record, plus (full matrix) inside every
	// record. The quick tier samples the mid-record points.
	var points []int
	off := 0
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if line == "" {
			continue
		}
		if len(line) > 2 {
			points = append(points, off+len(line)/2) // torn mid-record
		}
		off += len(line)
		points = append(points, off) // clean boundary
	}
	fullMatrix := os.Getenv("CRASH_MATRIX") == "full"
	step := 1
	if !fullMatrix && len(points) > 16 {
		step = len(points) / 16
	}

	tested := 0
	for i := 0; i < len(points); i += step {
		cut := points[i]
		caseDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(caseDir, segName), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := OpenStore(caseDir, storeCfg(), WithClock(clk.Now))
		if err != nil {
			t.Fatalf("cut at %d/%d bytes: replay failed: %v", cut, len(data), err)
		}
		got, err := rec.Cluster().Results(subFire, 0, 1<<62, true)
		if err != nil && cut > 0 {
			// The subscription only exists once its record is durable; before
			// that, an unknown-subscription error is the correct answer.
			if rec.Cluster().NumSubscriptions() != 0 {
				t.Fatalf("cut at %d: %v", cut, err)
			}
		}
		if len(got) > len(full) {
			t.Fatalf("cut at %d: recovered %d results, more than the full history %d", cut, len(got), len(full))
		}
		for j := range got {
			a, _ := json.Marshal(got[j])
			b, _ := json.Marshal(full[j])
			if string(a) != string(b) {
				t.Fatalf("cut at %d: result %d diverged: %s != %s", cut, j, a, b)
			}
		}
		_ = rec.Close()
		tested++
	}
	t.Logf("crash matrix: %d/%d cut points verified (full=%v)", tested, len(points), fullMatrix)
}

// TestStoreRecoversFromUndecodableSnapshot: a corrupt newest snapshot is
// skipped (counted) in favor of an older good one plus a longer tail
// replay.
func TestStoreRecoversFromUndecodableSnapshot(t *testing.T) {
	dir := t.TempDir()
	clk := &testClock{}
	st, err := OpenStore(dir, storeCfg(), WithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	c := st.Cluster()
	subFire, _ := seedStoreWorkload(t, c, clk, 6)
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	mustIngest(t, c, "EmergencyReports", map[string]any{"etype": "fire"})
	// Snapshot 1 and segment 2 as they stand before the next compaction
	// covers and prunes them.
	before := copyDir(t, dir)
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	want := resultsJSON(t, c, subFire)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Compaction pruned everything the newest snapshot covers, so simply
	// corrupting it would (correctly) fail recovery. Put the older snapshot
	// and its tail back, as a crash between writing snapshot 2 and pruning
	// would have left them, then corrupt the newest: recovery must count
	// the bad file, use the older one and answer identically.
	for _, name := range []string{snapPath("", 1), segPath("", 2)} {
		data, err := os.ReadFile(filepath.Join(before, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(snapPath(dir, 2), []byte(`{"kind":"snapshot","last_`), 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := OpenStore(dir, storeCfg(), WithClock(clk.Now))
	if err != nil {
		t.Fatalf("recovery with corrupt newest snapshot: %v", err)
	}
	defer rec.Close()
	if got := rec.Stats().BadSnapshots.Value(); got != 1 {
		t.Errorf("bad_snapshot_decode_errors_total = %v, want 1", got)
	}
	if got := resultsJSON(t, rec.Cluster(), subFire); string(got) != string(want) {
		t.Errorf("results diverged after snapshot fallback:\n got %s\nwant %s", got, want)
	}
}

// TestStoreSnapshotAge: -1 before the first snapshot, near-zero after.
func TestStoreSnapshotAge(t *testing.T) {
	st, err := OpenStore(t.TempDir(), storeCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if age := st.SnapshotAge(); age != -1 {
		t.Errorf("snapshot age before any snapshot = %v, want -1", age)
	}
	if err := st.Cluster().CreateDataset("DS", Schema{}); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if age := st.SnapshotAge(); age < 0 || age > time.Minute {
		t.Errorf("snapshot age after compact = %v", age)
	}
}

// TestParseSyncPolicy covers the -wal-sync flag values.
func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in      string
		want    SyncPolicy
		wantErr bool
	}{
		{in: "always", want: SyncAlways},
		{in: "interval", want: SyncInterval},
		{in: "fsync-sometimes", wantErr: true},
		{in: "", want: SyncInterval}, // unset flag means the default
	}
	for _, tc := range cases {
		got, err := ParseSyncPolicy(tc.in)
		if tc.wantErr != (err != nil) {
			t.Errorf("ParseSyncPolicy(%q) err = %v, wantErr %v", tc.in, err, tc.wantErr)
		}
		if err == nil && got != tc.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
