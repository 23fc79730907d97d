package bdms

import (
	"bytes"
	"testing"
	"time"
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

// seedSnapshot is a compacted log: the header, a dataset and its ingest, a
// continuous and a repetitive channel, a subscription to each, the
// continuous one's result and the repetitive group's tick.
const seedSnapshot = `{"kind":"snapshot","last_seq":2,"at_ns":5}
{"kind":"dataset","dataset":"DS","at_ns":0}
{"kind":"ingest","dataset":"DS","data":{"etype":"fire"},"at_ns":1}
{"kind":"channel","channel":{"name":"Alerts","params":["etype"],"body":"select * from DS r where r.etype = $etype","period":0},"at_ns":0}
{"kind":"channel","channel":{"name":"Digest","params":null,"body":"select * from DS r","period":1000},"at_ns":0}
{"kind":"sub","sub":"bsub-000001","name":"Alerts","params":["fire"],"at_ns":5}
{"kind":"sub","sub":"bsub-000002","name":"Digest","at_ns":5}
{"kind":"result","at_ns":1,"sub":"bsub-000001","result":{"id":"bsub-000001-r000001","subscription_id":"bsub-000001","timestamp":1,"rows":[{"etype":"fire"}],"size":18}}
{"kind":"tick","name":"Digest","sig":"{}","last_seq":1,"at_ns":4}
`

// compacted is what Compact would write for c's state.
func compacted(t *testing.T, c *Cluster) []byte {
	t.Helper()
	c.mu.Lock()
	snap := c.snapshotLocked()
	c.mu.Unlock()
	var buf bytes.Buffer
	if _, err := snap.writeTo(&buf); err != nil {
		t.Fatalf("compacting: %v", err)
	}
	return buf.Bytes()
}

// FuzzCacheSnapshot reads arbitrary bytes as a snapshot file and applies
// it to a fresh cluster, as recovery does: that must never panic, and a
// snapshot that is accepted and compacted again must read back to the
// same records — compaction is a fixed point.
func FuzzCacheSnapshot(f *testing.F) {
	f.Add([]byte(seedSnapshot))
	f.Add([]byte(`{"kind":"snapshot","last_seq":7,"at_ns":1}` + "\n"))
	f.Add([]byte(`{"kind":"dataset","dataset":"DS","at_ns":0}` + "\n")) // no header
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	fixed := WithClock(func() time.Duration { return 0 })
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, _, torn, err := readWAL(bytes.NewReader(data))
		if err != nil || torn || len(recs) == 0 || recs[0].Kind != walKindSnapshot {
			return // recovery skips it
		}
		// Errors are legitimate (dangling references, bad channel bodies);
		// recovery then fails loudly.
		c := NewCluster(fixed)
		if err := c.replayWAL(recs); err != nil {
			return
		}
		first := compacted(t, c)
		again, _, torn, err := readWAL(bytes.NewReader(first))
		if err != nil || torn {
			t.Fatalf("compacted snapshot does not read back (torn %v): %v", torn, err)
		}
		rc := NewCluster(fixed)
		if err := rc.replayWAL(again); err != nil {
			t.Fatalf("compacted snapshot does not replay: %v\n%s", err, first)
		}
		if second := compacted(t, rc); !bytes.Equal(first, second) {
			t.Fatalf("compacting the compacted snapshot changed it:\n%s\nthen\n%s", first, second)
		}
	})
}
