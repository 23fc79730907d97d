package bdms

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// openWAL opens the store directory dir and hands back its cluster, which
// carries the live log as c.wal; the store's tickers stop with the test.
func openWAL(t *testing.T, dir string, opts ...Option) (*Cluster, error) {
	t.Helper()
	s, err := OpenStore(dir, StoreConfig{}, opts...)
	if err != nil {
		return nil, err
	}
	t.Cleanup(func() { _ = s.Close() })
	return s.Cluster(), nil
}

// writeSegment plants content as the first log segment of a new store
// directory and returns the directory.
func writeSegment(t *testing.T, content string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(segPath(dir, 1), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestWALPersistsAndRecovers(t *testing.T) {
	path := t.TempDir()
	clk := &testClock{}
	c, err := openWAL(t, path, WithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	wal := c.wal
	if err := c.CreateDataset("EmergencyReports", Schema{
		Fields: []Field{{Name: "etype", Type: TypeString}},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		clk.Advance(time.Second)
		mustIngest(t, c, "EmergencyReports", map[string]any{
			"etype": "fire", "severity": float64(i),
		})
	}
	if err := wal.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": replay into a fresh cluster.
	recovered, err := openWAL(t, path, WithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	ds := recovered.Dataset("EmergencyReports")
	if ds == nil {
		t.Fatal("dataset not recovered")
	}
	if ds.Len() != 10 {
		t.Errorf("recovered %d records, want 10", ds.Len())
	}
	if ds.Schema().Open() {
		t.Error("schema should be recovered closed")
	}
	// Post-recovery ingests keep appending and survive another restart.
	mustIngest(t, recovered, "EmergencyReports", map[string]any{"etype": "flood"})
	if recovered.wal == nil {
		t.Fatal("recovered cluster should carry the WAL")
	}
	if err := recovered.wal.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := openWAL(t, path, WithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	if got := again.Dataset("EmergencyReports").Len(); got != 11 {
		t.Errorf("second recovery has %d records, want 11", got)
	}
	if again.wal != nil {
		_ = again.wal.Close()
	}
}

func TestOpenWALMissingFile(t *testing.T) {
	c, err := openWAL(t, filepath.Join(t.TempDir(), "does-not-exist"))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.DatasetNames()) != 0 {
		t.Error("fresh cluster should be empty")
	}
	if c.wal == nil {
		t.Error("fresh cluster should still get a WAL for future appends")
	}
	_ = c.wal.Close()
}

func TestOpenWALToleratesTornTail(t *testing.T) {
	path := writeSegment(t, `{"kind":"dataset","dataset":"DS","schema":{},"at_ns":0}
{"kind":"ingest","dataset":"DS","data":{"x":1},"at_ns":1}
{"kind":"ingest","dataset":"DS","data":{"x":2},"at_`) // torn mid-record
	c, err := openWAL(t, path)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Dataset("DS").Len(); got != 1 {
		t.Errorf("recovered %d records, want 1 (torn tail dropped)", got)
	}
	_ = c.wal.Close()
}

func TestOpenWALRejectsMidFileCorruption(t *testing.T) {
	path := writeSegment(t, `{"kind":"dataset","dataset":"DS","schema":{},"at_ns":0}
GARBAGE NOT JSON
{"kind":"ingest","dataset":"DS","data":{"x":2},"at_ns":2}
`)
	if _, err := openWAL(t, path); err == nil {
		t.Error("mid-file corruption should fail recovery")
	}
}

// TestOpenWALRejectsRecordWithoutKind: a pre-PR 10 record (no kind) fails
// recovery instead of being guessed to be a dataset creation or an ingest.
func TestOpenWALRejectsRecordWithoutKind(t *testing.T) {
	path := writeSegment(t, `{"kind":"dataset","dataset":"DS","schema":{},"at_ns":0}
{"dataset":"DS","data":{"x":1},"at_ns":1}
`)
	_, err := openWAL(t, path)
	if err == nil || !strings.Contains(err.Error(), `unknown wal record kind ""`) {
		t.Errorf("open = %v, want unknown wal record kind error", err)
	}
}

func TestWALClosedAppendFails(t *testing.T) {
	c, err := openWAL(t, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wal := c.wal
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Errorf("double close should be fine: %v", err)
	}
	if err := c.CreateDataset("DS", Schema{}); err == nil {
		t.Error("create against a closed WAL should fail")
	}
}

// An interval fsync of a log with nothing appended since the last one is
// skipped: an idle cluster does not fsync ten times a second.
func TestWALSyncSkipsCleanLog(t *testing.T) {
	stats := &WALStats{}
	w, err := createWAL(filepath.Join(t.TempDir(), "wal"), SyncInterval, stats)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	syncTo := func(want float64) {
		t.Helper()
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		if got := stats.Fsyncs.Value(); got != want {
			t.Fatalf("fsyncs = %v, want %v", got, want)
		}
	}
	syncTo(0) // nothing appended yet
	for want := 1.0; want <= 2; want++ {
		if err := w.append(walRecord{Kind: walKindDataset, Dataset: "DS"}); err != nil {
			t.Fatal(err)
		}
		syncTo(want)
		syncTo(want) // back to back: the log is clean
	}
}

func TestWALRejectedIngestNotLogged(t *testing.T) {
	path := t.TempDir()
	c, err := openWAL(t, path)
	if err != nil {
		t.Fatal(err)
	}
	wal := c.wal
	if err := c.CreateDataset("DS", Schema{
		Fields: []Field{{Name: "must", Type: TypeString}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest("DS", map[string]any{"wrong": 1.0}); err == nil {
		t.Fatal("schema violation should fail")
	}
	if _, err := c.Ingest("DS", nil); err == nil {
		t.Fatal("nil record should fail")
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := openWAL(t, path)
	if err != nil {
		t.Fatalf("replay must not see rejected ingests: %v", err)
	}
	if got := rec.Dataset("DS").Len(); got != 0 {
		t.Errorf("recovered %d records, want 0", got)
	}
	_ = rec.wal.Close()
}

// TestParentWALReplays: a log segment written before result rows became
// bytes (testdata/wal-parent: PR 24's tree, continuous, enriched, shared,
// batched and repetitive results whose rows hold HTML-significant
// characters, U+2028, non-ASCII, control bytes and 1e21) replays into the
// result datasets that tree held — same objects, same Size, and rows that
// are the bytes its encoding/json wrote for them, whose length Size is.
func TestParentWALReplays(t *testing.T) {
	seg, err := os.ReadFile("testdata/wal-parent/wal-000001.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("testdata/wal-parent/results.json")
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Subs    map[string]string         `json:"subs"`
		Results map[string][]ResultObject `json:"results"`
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	c, err := openWAL(t, writeSegment(t, string(seg)))
	if err != nil {
		t.Fatal(err)
	}
	for name, id := range want.Subs {
		got, err := c.Results(id, 0, 1<<62, true)
		if err != nil {
			t.Fatal(err)
		}
		exp := want.Results[name]
		for i := range exp { // results.json is indented; the parent held compact rows
			var buf bytes.Buffer
			if err := json.Compact(&buf, exp[i].Rows); err != nil {
				t.Fatal(err)
			}
			exp[i].Rows = buf.Bytes()
		}
		if !reflect.DeepEqual(got, exp) {
			t.Errorf("%s replayed as\n%+v\nwant\n%+v", name, got, exp)
		}
		for _, r := range got {
			if r.Size != int64(len(r.Rows)) || !strings.Contains(string(seg), string(r.Rows)) {
				t.Errorf("%s: Size %d, %d rows bytes, or rows not the logged bytes", r.ID, r.Size, len(r.Rows))
			}
		}
	}
	if len(want.Results["fire-a"]) != 3 || len(want.Results["digest"]) != 1 {
		t.Fatalf("testdata holds %d fire and %d digest results, want 3 and 1",
			len(want.Results["fire-a"]), len(want.Results["digest"]))
	}
}
