package bdms

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestResultsBodiesMatchEncodingJSON: the WAL's result records, the webhook
// envelope and the results body, appended with their rows spliced in, are
// the bytes encoding/json writes for them — rows being json.Marshal output,
// as evaluate and encodeResults make them.
func TestResultsBodiesMatchEncodingJSON(t *testing.T) {
	rows := func(rs ...map[string]any) json.RawMessage {
		b, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	fire := rows(map[string]any{"etype": "fire", "severity": 3.0})
	nested := rows(map[string]any{
		"etype":    "fire",
		"location": map[string]any{"lat": 33.64, "lon": -117.84},
		"shelters": []any{map[string]any{"id": "s<1>&", "beds": 12.0}, nil, true},
		"note":     "a\u2028b \u00e9\x01",
	}, map[string]any{"etype": "flood", "big": 1e21, "tiny": 1e-7})
	obj := func(id, sub string, ts time.Duration, rows json.RawMessage) ResultObject {
		return ResultObject{ID: id, SubscriptionID: sub, Timestamp: ts, Rows: rows, Size: int64(len(rows))}
	}
	objs := []ResultObject{
		obj("bsub-000001-r000001", "bsub-000001", 1, fire),
		obj("bsub-000001-r000002", "bsub-000001", 2, nested),
		obj(`q"b\s<x>&`+"\u2028\x00\xff", "sub\u00e9", 3, fire),
		obj("no-rows", "bsub-000002", 4, nil),
	}
	encode := func(v any) []byte {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	stamped := append([]ResultObject(nil), objs...)
	for i := 1; i < len(stamped); i++ {
		stamped[i].PrevNS = int64(stamped[i-1].Timestamp)
	}
	for _, o := range append(objs[:len(objs):len(objs)], stamped...) {
		for _, sub := range []string{o.SubscriptionID, ""} {
			o := o
			rec := walRecord{Kind: walKindResult, Sub: sub, Result: &o, AtNS: int64(o.Timestamp)}
			want, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			if got := appendResultRecord(nil, rec); !bytes.Equal(got, want) {
				t.Errorf("result record:\n got %s\nwant %s", got, want)
			}
		}
	}

	for _, results := range [][]ResultObject{nil, {}, objs[:1], objs} {
		want := encode(ResultsResponse{Results: results})
		if got := appendResultsResponse(nil, results); !bytes.Equal(got, want) {
			t.Errorf("results body:\n got %s\nwant %s", got, want)
		}
	}

	// Webhook envelopes: a PULL entry, PUSH entries with and without
	// prev_ns, a handle-only entry (a PUSH shed to its handle reads as a
	// PULL), entries in more, IDs that need escaping.
	pull := NotificationPayload{SubscriptionID: "bsub-000001", LatestNS: 42}
	pushed := NotificationPayload{SubscriptionID: "bsub-000001", LatestNS: 4, Results: stamped}
	unstamped := NotificationPayload{SubscriptionID: `q"b\s<x>&` + " ", LatestNS: 3, Results: objs[2:3]}
	handle := NotificationPayload{SubscriptionID: "bsub-000003", LatestNS: 1 << 40, Results: []ResultObject{}}
	for _, p := range []NotificationPayload{
		pull, pushed, unstamped, handle,
		{SubscriptionID: pull.SubscriptionID, LatestNS: pull.LatestNS, More: []NotificationPayload{pushed, unstamped, handle}},
		{SubscriptionID: pushed.SubscriptionID, LatestNS: pushed.LatestNS, Results: pushed.Results, More: []NotificationPayload{pull}},
		{SubscriptionID: "x", More: []NotificationPayload{}},
	} {
		want, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendNotificationPayload(nil, p); !bytes.Equal(got, want) {
			t.Errorf("webhook envelope:\n got %s\nwant %s", got, want)
		}
	}
}

// TestWALResultRecordsSpliced: a WAL written through commitEval holds, for
// each result, the line encoding/json writes for its record — without the
// predecessor the result's notification names.
func TestWALResultRecordsSpliced(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	c := st.Cluster()
	if err := c.CreateDataset("DS", Schema{}); err != nil {
		t.Fatal(err)
	}
	if err := c.DefineChannel(ChannelDef{Name: "Ch", Params: []string{"k"},
		Body: "select * from DS r where r.k = $k"}); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "a"} {
		if _, err := c.Subscribe("Ch", []any{k}, ""); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 {
		if _, err := c.IngestBatch("DS", []map[string]any{
			{"k": "a", "note": "<&>\u2028"}, {"k": "b", "n": 1e21}, {"k": "a", "nested": map[string]any{"x": []any{1.0, nil}}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := readWALFile(segPath(dir, 1), &WALStats{}, false)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(segPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	raw := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	results := 0
	for i, rec := range seg {
		if rec.Kind != walKindResult {
			continue
		}
		results++
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw[i], want) {
			t.Errorf("logged %s\nencoding/json %s", raw[i], want)
		}
		if rec.Result.PrevNS != 0 {
			t.Errorf("logged %s names its predecessor", raw[i])
		}
	}
	// Two batches, each matching groups a (two members) and b: one record
	// per group result, not per member.
	if results != 4 {
		t.Errorf("%d result records, want 4", results)
	}
}
