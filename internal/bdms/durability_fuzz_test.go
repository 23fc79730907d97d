package bdms

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzWALRecord throws arbitrary bytes at the WAL reader: whatever is on
// disk after a crash, recovery must never panic, the reported good offset
// must stay inside the input, and a re-read of the good prefix must
// reproduce exactly the same records with no torn tail.
func FuzzWALRecord(f *testing.F) {
	f.Add([]byte(`{"kind":"dataset","dataset":"DS","schema":{},"at_ns":0}` + "\n"))
	f.Add([]byte(`{"kind":"ingest","dataset":"DS","data":{"x":1},"at_ns":1}` + "\n"))
	f.Add([]byte(`{"kind":"result","sub":"bsub-000001","result":{"id":"bsub-000001-r000001","ts_ns":5,"rows":[{"a":1}]},"at_ns":5}` + "\n"))
	f.Add([]byte(`{"kind":"sub","sub":"bsub-000001","name":"Alerts","params":["fire"],"at_ns":2}` + "\n"))
	f.Add([]byte(`{"kind":"tick","name":"R","sig":"{}","last_seq":3,"at_ns":9}` + "\n"))
	f.Add([]byte("{\"kind\":\"ingest\",\"dataset\":\"DS\",\"da")) // torn tail
	f.Add([]byte("GARBAGE\n{\"kind\":\"dataset\"}\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, goodOff, torn, err := readWAL(bytes.NewReader(data))
		if goodOff < 0 || goodOff > int64(len(data)) {
			t.Fatalf("good offset %d outside input of %d bytes", goodOff, len(data))
		}
		if err != nil {
			return
		}
		if torn && goodOff == int64(len(data)) {
			t.Fatal("torn tail reported but good offset covers the whole input")
		}
		// Reading back just the good prefix must be stable: same records,
		// nothing torn.
		again, againOff, againTorn, err := readWAL(bytes.NewReader(data[:goodOff]))
		if err != nil {
			t.Fatalf("re-read of good prefix failed: %v", err)
		}
		if againTorn {
			t.Fatal("good prefix still reports a torn tail")
		}
		if againOff != goodOff {
			t.Fatalf("good prefix offset moved: %d -> %d", goodOff, againOff)
		}
		if len(again) != len(recs) {
			t.Fatalf("good prefix re-read %d records, first read %d", len(again), len(recs))
		}
	})
}

// seedSnapshot is a snapshot as written before datasets lost their storage
// nodes: it still carries num_nodes, which decoding now ignores.
const seedSnapshot = `{"version":1,"seg":1,"taken_unix_ns":1,"clock_ns":5,"num_nodes":3,"sub_seq":2,` +
	`"datasets":[{"name":"DS","schema":{},"next_seq":1,"records":[{"seq":1,"ts_ns":1,"data":{"x":1}}]}],` +
	`"channels":[{"name":"Alerts","params":["etype"],"body":"select * from DS r where r.etype = $etype"}],` +
	`"subs":[{"id":"bsub-000001","channel":"Alerts","params":["fire"],"last_ts_ns":1,"seq":1,"results":[]}]}`

// TestRestoreSnapshotWithNumNodes: a snapshot from before the cut restores,
// and the dataset scans complete and in Seq order.
func TestRestoreSnapshotWithNumNodes(t *testing.T) {
	snap, err := decodeSnapshot([]byte(seedSnapshot))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster()
	if err := c.restoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	want := snap.Datasets[0].Records
	recs := c.Dataset("DS").ScanSince(0)
	if len(want) == 0 || len(recs) != len(want) {
		t.Fatalf("ScanSince(0) returned %d records, snapshot holds %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r.Seq != want[i].Seq || (i > 0 && r.Seq <= recs[i-1].Seq) {
			t.Fatalf("record %d has seq %d, snapshot order says %d", i, r.Seq, want[i].Seq)
		}
	}
}

// FuzzCacheSnapshot decodes arbitrary bytes as a cluster snapshot file:
// recovery skips undecodable snapshots, so decodeSnapshot must classify —
// never panic — and every accepted snapshot must survive a JSON round
// trip (what Compact would write next).
func FuzzCacheSnapshot(f *testing.F) {
	f.Add([]byte(seedSnapshot))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":99}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		if snap.Version != snapshotVersion {
			t.Fatalf("accepted snapshot with version %d", snap.Version)
		}
		enc, err := json.Marshal(snap)
		if err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		if _, err := decodeSnapshot(enc); err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		// Restoring into a fresh cluster must not panic either; errors are
		// legitimate (dangling channel references, bad channel bodies).
		c := NewCluster()
		_ = c.restoreSnapshot(snap)
	})
}
