package bdms

import (
	"fmt"
	"testing"
	"time"

	"gobad/internal/aql"
)

func mustWhere(t *testing.T, src string) (aql.Expr, string) {
	t.Helper()
	q, err := aql.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	return q.Where, q.Alias
}

func TestFindIndexSpec(t *testing.T) {
	tests := []struct {
		src       string
		wantPath  string
		wantParam string
	}{
		{"select * from DS r where r.etype = $etype", "etype", "etype"},
		{"select * from DS r where $t = r.etype", "etype", "t"},
		{"select * from DS r where r.a.b = $x and r.c > 1", "a.b", "x"},
		{"select * from DS r where r.c > 1 and r.etype = $e", "etype", "e"},
		{"select * from DS where etype = $e", "etype", "e"},
	}
	for _, tt := range tests {
		where, alias := mustWhere(t, tt.src)
		spec := findIndexSpec(where, alias)
		if spec == nil {
			t.Errorf("%q: no index spec found", tt.src)
			continue
		}
		path := ""
		for i, p := range spec.fieldPath {
			if i > 0 {
				path += "."
			}
			path += p
		}
		if path != tt.wantPath || spec.param != tt.wantParam {
			t.Errorf("%q: spec = (%s, $%s), want (%s, $%s)",
				tt.src, path, spec.param, tt.wantPath, tt.wantParam)
		}
	}
}

func TestFindIndexSpecNone(t *testing.T) {
	for _, src := range []string{
		"select * from DS r where r.a > $x",
		"select * from DS r where r.a = 5",
		"select * from DS r where r.a = $x or r.b = $y", // OR is not prunable
		"select * from DS r where geo_distance(r.a, r.b, $x, $y) < 5",
		"select * from DS",
	} {
		where, alias := mustWhere(t, src)
		if spec := findIndexSpec(where, alias); spec != nil {
			t.Errorf("%q: unexpected index spec %+v", src, spec)
		}
	}
}

func TestIndexKey(t *testing.T) {
	if k, ok := indexKey("fire"); !ok || k != `"fire"` {
		t.Errorf("string key = %q, %v", k, ok)
	}
	if k, ok := indexKey(3.0); !ok || k != "3" {
		t.Errorf("number key = %q, %v", k, ok)
	}
	if _, ok := indexKey(nil); ok {
		t.Error("nil should not key a bucket")
	}
	// Distinct types with same rendering must not collide.
	ks, _ := indexKey("3")
	kn, _ := indexKey(3.0)
	if ks == kn {
		t.Error(`"3" and 3 should not collide`)
	}
}

func TestIndexedMatchingEquivalence(t *testing.T) {
	// The index must never change matching results: compare an indexed
	// channel against a semantically identical non-indexable one.
	c, clk := newTestCluster(t)
	setupEmergencyCluster(t, c)
	if err := c.DefineChannel(ChannelDef{
		Name:   "Indexed",
		Params: []string{"etype"},
		Body:   "select * from EmergencyReports r where r.etype = $etype and r.severity >= 2",
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.DefineChannel(ChannelDef{
		Name:   "Unindexed",
		Params: []string{"etype"},
		// contains() defeats the equality detector but is equivalent for
		// exact values
		Body: "select * from EmergencyReports r where contains(r.etype, $etype) and len(r.etype) = len($etype) and r.severity >= 2",
	}); err != nil {
		t.Fatal(err)
	}
	kinds := []string{"fire", "flood", "tornado"}
	subsIdx := map[string]string{}
	subsUn := map[string]string{}
	for _, k := range kinds {
		id1, err := c.Subscribe("Indexed", []any{k}, "")
		if err != nil {
			t.Fatal(err)
		}
		id2, err := c.Subscribe("Unindexed", []any{k}, "")
		if err != nil {
			t.Fatal(err)
		}
		subsIdx[k], subsUn[k] = id1, id2
	}
	// Verify the index actually engaged.
	if ix := c.groups["Indexed"].index; ix == nil {
		t.Fatal("index not built for Indexed channel")
	} else if n, u := ix.size(); n != 3 || u != 0 {
		t.Fatalf("index size = %d/%d, want 3/0", n, u)
	}
	if c.groups["Unindexed"].index != nil {
		t.Fatal("Unindexed channel should have no index")
	}

	for i := 0; i < 60; i++ {
		clk.Advance(time.Second)
		mustIngest(t, c, "EmergencyReports",
			report(kinds[i%3], float64(i%5), 33, -117))
	}
	for _, k := range kinds {
		r1, err := c.Results(subsIdx[k], 0, clk.Now(), true)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := c.Results(subsUn[k], 0, clk.Now(), true)
		if err != nil {
			t.Fatal(err)
		}
		if len(r1) != len(r2) {
			t.Errorf("kind %s: indexed %d results, unindexed %d", k, len(r1), len(r2))
		}
		if len(r1) == 0 {
			t.Errorf("kind %s: no results at all", k)
		}
	}
}

func TestIndexRemovalOnUnsubscribe(t *testing.T) {
	c, clk := newTestCluster(t)
	setupEmergencyCluster(t, c)
	if err := c.DefineChannel(ChannelDef{
		Name:   "Alerts",
		Params: []string{"etype"},
		Body:   "select * from EmergencyReports r where r.etype = $etype",
	}); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe("Alerts", []any{"fire"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Unsubscribe(sub); err != nil {
		t.Fatal(err)
	}
	if cg := c.groups["Alerts"]; cg != nil {
		t.Errorf("channel still has evaluation state after its last unsubscribe: %+v", cg)
	}
	clk.Advance(time.Second)
	mustIngest(t, c, "EmergencyReports", report("fire", 3, 0, 0))
	if got := c.Stats().ResultsProduced.Value(); got != 0 {
		t.Errorf("results after unsubscribe = %v", got)
	}
}

func TestIndexUnindexableParamValue(t *testing.T) {
	// A subscription binding the indexed param to null lands in the
	// unindexed list and still gets evaluated.
	c, clk := newTestCluster(t)
	setupEmergencyCluster(t, c)
	if err := c.DefineChannel(ChannelDef{
		Name:   "Alerts",
		Params: []string{"etype"},
		Body:   "select * from EmergencyReports r where r.etype = $etype or r.severity >= $etype",
	}); err != nil {
		t.Fatal(err)
	}
	// The OR makes it non-indexable anyway; use a cleaner probe: an
	// indexable channel with a nil param value.
	if err := c.DefineChannel(ChannelDef{
		Name:   "Clean",
		Params: []string{"etype"},
		Body:   "select * from EmergencyReports r where r.etype = $etype",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe("Clean", []any{nil}, ""); err != nil {
		t.Fatal(err)
	}
	if n, u := c.groups["Clean"].index.size(); n != 0 || u != 1 {
		t.Errorf("nil-bound subscription placement = %d/%d, want 0/1", n, u)
	}
	clk.Advance(time.Second)
	mustIngest(t, c, "EmergencyReports", report("fire", 3, 0, 0)) // must not panic
}

func TestIndexRecordMissingField(t *testing.T) {
	c, clk := newTestCluster(t)
	setupEmergencyCluster(t, c)
	if err := c.DefineChannel(ChannelDef{
		Name:   "Alerts",
		Params: []string{"etype"},
		Body:   "select * from EmergencyReports r where r.etype = $etype",
	}); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe("Alerts", []any{"fire"}, "")
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	// A record without the indexed field matches no equality bucket.
	mustIngest(t, c, "EmergencyReports", map[string]any{"severity": 1.0})
	res, err := c.Results(sub, 0, clk.Now(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("field-less record should not match: %v", res)
	}
}

// BenchmarkIngestMatching quantifies the index: many subscriptions on one
// continuous channel, indexed vs non-indexable predicate.
func BenchmarkIngestMatching(b *testing.B) {
	for _, mode := range []struct {
		name string
		body string
	}{
		{"indexed", "select * from DS r where r.k = $k"},
		{"unindexed", "select * from DS r where contains(r.k, $k)"},
	} {
		for _, subs := range []int{100, 2000} {
			b.Run(fmt.Sprintf("%s/subs=%d", mode.name, subs), func(b *testing.B) {
				c := NewCluster()
				if err := c.CreateDataset("DS", Schema{}); err != nil {
					b.Fatal(err)
				}
				if err := c.DefineChannel(ChannelDef{
					Name: "Ch", Params: []string{"k"}, Body: mode.body,
				}); err != nil {
					b.Fatal(err)
				}
				for i := 0; i < subs; i++ {
					if _, err := c.Subscribe("Ch", []any{fmt.Sprintf("key-%d", i)}, ""); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					_, err := c.Ingest("DS", map[string]any{
						"k": fmt.Sprintf("key-%d", n%subs), "v": float64(n),
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
