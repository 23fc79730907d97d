package broker

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// encodeResultsJSON is the results body as encoding/json writes it — the
// route's body before appendResults: rows decoded into maps and encoded
// again, through the same Encoder httpx.WriteJSON uses.
func encodeResultsJSON(t *testing.T, ret Retrieval) []byte {
	t.Helper()
	resp := ResultsResponse{Results: make([]ResultItem, 0, len(ret.Items)), LatestNS: int64(ret.Latest), Stale: ret.Stale}
	for _, it := range ret.Items {
		var rows []map[string]any
		if len(it.Rows) > 0 {
			if err := json.Unmarshal(it.Rows, &rows); err != nil {
				t.Fatal(err)
			}
		}
		resp.Results = append(resp.Results, ResultItem{ID: it.ID, TimestampNS: it.TimestampNS,
			Size: it.Size, Rows: rows, FromCache: it.FromCache})
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rawRows encodes rows the way the cluster does when an evaluation
// commits.
func rawRows(t *testing.T, rows ...map[string]any) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestResultsBodyMatchesEncodingJSON: the hand-appended results body
// decodes to the same ResultsResponse as encoding/json's body for the same
// retrieval — and, its rows being the cluster's json.Marshal output, is the
// same bytes.
func TestResultsBodyMatchesEncodingJSON(t *testing.T) {
	fire := rawRows(t, map[string]any{"etype": "fire", "severity": 3.0})
	item := func(id string, ts int64, rows json.RawMessage, cached bool) Item {
		return Item{ID: id, TimestampNS: ts, Size: int64(len(rows)), Rows: rows, FromCache: cached}
	}
	cases := []struct {
		name string
		ret  Retrieval
	}{
		{"zero items", Retrieval{Items: []Item{}, Latest: 7 * time.Second}},
		{"nil items", Retrieval{}},
		{"stale", Retrieval{Items: []Item{item("r1", 1, fire, true)}, Stale: true}},
		{"mixed from_cache", Retrieval{Items: []Item{
			item("r1", 1, fire, true), item("r2", 2, fire, false), item("r3", 3, fire, true),
		}, Latest: 3}},
		{"ids that need escaping", Retrieval{Items: []Item{
			item(`quote"`, 1, fire, true),
			item(`back\slash`, 2, fire, true),
			item("<script>&amp;</script>", 3, fire, true),
			item("line\u2028para\u2029", 4, fire, true),
			item("ctl\x00\x01\b\f\n\r\t\x1f\x7f", 5, fire, true),
			item("na\u00efve-\u65e5\u672c-\U0001f525", 6, fire, true),
			item("bad\xffutf8\xc3", 7, fire, true),
		}, Latest: 7}},
		{"nested rows", Retrieval{Items: []Item{
			item("r1", 1, rawRows(t, map[string]any{
				"etype":    "fire",
				"location": map[string]any{"lat": 33.64, "lon": -117.84},
				"shelters": []any{map[string]any{"id": "s<1>", "beds": 12.0}, nil, true},
				"note":     "a\u2028b",
			}, map[string]any{"etype": "flood", "big": 1e21, "tiny": 1e-7}), false),
		}, Latest: 1}},
		{"rows that decode to nothing are omitted", Retrieval{Items: []Item{
			item("none", 1, nil, true),
			item("null", 2, json.RawMessage("null"), true),
			item("empty", 3, json.RawMessage("[]"), true),
		}, Latest: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := appendResults(nil, tc.ret)
			want := encodeResultsJSON(t, tc.ret)
			var gotResp, wantResp ResultsResponse
			if err := json.Unmarshal(got, &gotResp); err != nil {
				t.Fatalf("appended body does not decode: %v\n%s", err, got)
			}
			if err := json.Unmarshal(want, &wantResp); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotResp, wantResp) {
				t.Errorf("decoded bodies differ:\n got %+v\nwant %+v", gotResp, wantResp)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("bodies differ:\n got %s\nwant %s", got, want)
			}
			if len(tc.ret.Items) == 0 && !bytes.HasPrefix(got, []byte(`{"results":[]`)) {
				t.Errorf("empty answer = %s, want \"results\":[]", got)
			}
			if n := resultsBodySize(tc.ret); !strings.Contains(tc.name, "escaping") && len(got) > n {
				t.Errorf("body of %d bytes outgrew its %d-byte estimate", len(got), n)
			}
		})
	}
}
