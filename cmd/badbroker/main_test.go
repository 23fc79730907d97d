package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gobad/internal/bdms"
)

// A snapshot written by writeCacheSnapshot reads back equal, and the write
// leaves only the snapshot behind: no .tmp, on success or on a failed
// rename.
func TestCacheSnapshotFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.snap")
	snap := bdms.CacheSnapshot{
		Version: bdms.CacheSnapshotVersion, Broker: "broker-1", TakenUnixNS: 42,
		Entries: []bdms.CacheWarmEntry{{
			FabricKey: "fk1", Channel: "Alerts", Params: []any{"fire"}, BTSNS: 7,
			Objects: []bdms.ResultObject{{ID: "r1", SubscriptionID: "bsub-1", Timestamp: 7,
				Rows: json.RawMessage(`[{"etype":"fire"}]`), Size: 18}},
		}},
	}
	if err := writeCacheSnapshot(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err := readCacheSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	// Params decode as []any of JSON values, so compare through JSON.
	want, _ := json.Marshal(snap)
	have, _ := json.Marshal(got)
	if !reflect.DeepEqual(want, have) {
		t.Errorf("snapshot read back as\n%s\nwant\n%s", have, want)
	}
	assertOnly(t, dir, "cache.snap")

	// A rename onto a non-empty directory fails: the error surfaces and the
	// temp file is removed.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeCacheSnapshot(blocked, snap); err == nil {
		t.Fatal("writing over a non-empty directory succeeded")
	}
	assertOnly(t, dir, "blocked", "cache.snap")
}

func assertOnly(t *testing.T, dir string, names ...string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var have []string
	for _, e := range entries {
		have = append(have, e.Name())
	}
	if !reflect.DeepEqual(have, names) {
		t.Errorf("directory holds %v, want %v", have, names)
	}
}
