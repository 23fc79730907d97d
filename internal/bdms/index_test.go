package bdms

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
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

// An equality conjunct wins; a body without one is indexed by its geo
// circle, as aql.GeoConjunct finds it, either argument pair the record's.
func TestFindIndexSpec(t *testing.T) {
	for _, tt := range []struct{ src, want string }{
		{"select * from DS r where r.etype = $etype", "etype = $etype"},
		{"select * from DS r where $t = r.etype", "etype = $t"},
		{"select * from DS r where r.a.b = $x and r.c > 1", "a.b = $x"},
		{"select * from DS r where r.c > 1 and r.etype = $e", "etype = $e"},
		{"select * from DS where etype = $e", "etype = $e"},
		{"select * from DS r where geo_distance(r.loc.lat, r.loc.lon, $a, $b) <= $r", "(loc.lat, loc.lon) within $r of ($a, $b)"},
		{"select * from DS r where r.s > 1 and geo_distance($a, $b, r.y, r.x) <= 2.5", "(y, x) within 2.5 of ($a, $b)"},
		{"select * from DS r where GEO_DISTANCE(r.y, r.x, $a, $b) <= 0 and r.s > 1", "(y, x) within 0 of ($a, $b)"},
		{"select * from DS where geo_distance(y, x, $a, $b) <= $r", "(y, x) within $r of ($a, $b)"},
		{"select * from DS r where geo_distance(r.y, r.x, $a, $b) <= 1 and r.k = $k", "k = $k"},
	} {
		where, alias := mustWhere(t, tt.src)
		spec := findIndexSpec(where, alias)
		if spec == nil {
			t.Errorf("%q: no index spec found", tt.src)
			continue
		}
		got := strings.Join(spec.fieldPath, ".") + " = $" + spec.param
		if cs := spec.circle; cs != nil {
			var radius any
			switch r := cs.radius.(type) {
			case aql.Param:
				radius = "$" + r.Name
			case aql.Lit:
				radius = r.Value
			}
			got = fmt.Sprintf("(%s, %s) within %v of ($%s, $%s)", strings.Join(cs.lat, "."), strings.Join(cs.lon, "."), radius, cs.clat, cs.clon)
		}
		if got != tt.want {
			t.Errorf("%q: index %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestFindIndexSpecNone(t *testing.T) {
	for _, src := range []string{
		"select * from DS r where r.a > $x",
		"select * from DS r where r.a = 5",
		"select * from DS r where r.a = $x or r.b = $y", // OR is not prunable
		"select * from DS r where geo_distance(r.a, r.b, $x, $y) < 5",
		"select * from DS r where geo_distance(r.a, r.b, $x, $y) <= 5 or r.c = 1",
		"select * from DS r where not (geo_distance(r.a, r.b, $x, $y) <= 5)",
		"select * from DS r where geo_distance(r.a, r.b, $x, $y) + 0 <= 5",
		"select * from DS r where geo_distance(r.a, r.b, $x, 1) <= 5",    // a literal centre
		"select * from DS r where geo_distance(r.a, $x, r.b, $y) <= 5",   // mixed pairs
		"select * from DS r where geo_distance(r.a, r.b, $x, $y) <= r.c", // a record's radius
		"select * from DS r where geo_distance(r.a, r.b, $x, $y) <= 'far'",
		"select * from DS r where geo_distance(r.a, r.b, $x, $y) <= -1", // a unary minus, not a literal
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
	t.Run("equality", func(t *testing.T) {
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
	})
	t.Run("geo", testGeoIndexEquivalence)
}

// geoTwins are geo-indexed channel bodies. Each is defined twice: as is,
// and with `+ 0` after the distance, which means the same but hides the
// circle from the recogniser, so the twin scans every group.
var geoTwins = []struct {
	name, body string
	params     []string
}{
	{"Circle", "select * from DS r where r.severity >= $min and " +
		"geo_distance(r.location.lat, r.location.lon, $lat, $lon) <= $radius", []string{"min", "lat", "lon", "radius"}},
	{"Swapped", "select * from DS r where geo_distance($lat, $lon, r.location.lat, r.location.lon) <= 2.5 " +
		"and r.severity >= $min", []string{"min", "lat", "lon"}},
}

func defineGeoTwins(t *testing.T, c *Cluster) {
	t.Helper()
	if err := c.CreateDataset("DS", Schema{}); err != nil {
		t.Fatal(err)
	}
	for _, tw := range geoTwins {
		for name, body := range map[string]string{tw.name: tw.body, tw.name + "Scan": strings.Replace(tw.body, ") <=", ") + 0 <=", 1)} {
			if err := c.DefineChannel(ChannelDef{Name: name, Params: tw.params, Body: body}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// geoParams draws a subscription's parameters: mostly a circle of up to
// 5 km round a point of a 0.2-degree square, now and then one the index
// cannot place.
func geoParams(rng *rand.Rand, n int) []any {
	edge := [][]any{
		{1.0, 10.0, 179.999, 1.0},     // crosses the antimeridian
		{1.0, 89.99, 0.0, 5.0},        // reaches a pole
		{1.0, 33.6, -117.9, -1.0},     // negative radius
		{1.0, 33.6, -117.9, 1e4},      // a quarter of the globe
		{1.0, "33.6", -117.9, 1.0},    // a centre that is no number
		{1.0, nil, -117.9, 1.0},       // nor this one
		{1.0, 33.6, -117.9, "far"},    // a radius that is no number
		{1.0, 33.65, -117.85, 0.0},    // a point
		{2.0, 33.65, -117.85, 1e-300}, // as good as one
	}
	var p []any
	if rng.Intn(6) == 0 {
		p = edge[rng.Intn(len(edge))]
	} else {
		p = []any{float64(1 + rng.Intn(3)), 33.5 + 0.2*rng.Float64(), -118 + 0.2*rng.Float64(), 5 * rng.Float64()}
	}
	return p[:n]
}

// geoRecords draws a batch: points round the square, exact centres,
// anywhere on the globe, and records with no usable point.
func geoRecords(rng *rand.Rand, n int) []map[string]any {
	out := make([]map[string]any, n)
	for i := range out {
		rec := map[string]any{"severity": float64(1 + rng.Intn(4))}
		switch rng.Intn(10) {
		case 0:
			rec["location"] = map[string]any{"lat": 33.65, "lon": -117.85}
		case 1:
			rec["location"] = map[string]any{"lat": 180*rng.Float64() - 90, "lon": 360*rng.Float64() - 180}
		case 2:
			delete(rec, "severity")
			rec["location"] = map[string]any{"lat": 33.6, "lon": -117.9}
		case 3:
			rec["location"] = [][]any{
				{"33.6", -117.9}, {33.6, nil}, {95.0, -117.9}, {33.6, 200.0}, {nil, nil},
			}[rng.Intn(5)]
			if loc := rec["location"].([]any); loc[0] != nil || loc[1] != nil {
				rec["location"] = map[string]any{"lat": loc[0], "lon": loc[1]}
			} else {
				delete(rec, "location")
			}
		default:
			rec["location"] = map[string]any{"lat": 33.45 + 0.3*rng.Float64(), "lon": -118.05 + 0.3*rng.Float64()}
		}
		out[i] = rec
	}
	return out
}

// sameResults fails unless two subscriptions hold equal result streams:
// the same sequence numbers, timestamps and rows.
func sameResults(t *testing.T, c *Cluster, a, b string, to time.Duration) int {
	t.Helper()
	ra, err := c.Results(a, 0, to, true)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := c.Results(b, 0, to, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra) != len(rb) {
		t.Fatalf("%s holds %d results, its twin %s %d", a, len(ra), b, len(rb))
	}
	for i := range ra {
		x, y := ra[i], rb[i]
		if strings.TrimPrefix(x.ID, a) != strings.TrimPrefix(y.ID, b) || x.Timestamp != y.Timestamp || string(x.Rows) != string(y.Rows) {
			t.Fatalf("result %d: %s has %s@%v %s, its twin %s@%v %s", i, a, x.ID, x.Timestamp, x.Rows, y.ID, y.Timestamp, y.Rows)
		}
	}
	return len(ra)
}

// testGeoIndexEquivalence: every geo-indexed channel delivers, per
// subscription, what its scanning twin delivers, in the same order, and
// fails as often.
func testGeoIndexEquivalence(t *testing.T) {
	notes := &collectNotifier{}
	c, clk := newTestCluster(t, WithNotifier(notes))
	defineGeoTwins(t, c)
	rng := rand.New(rand.NewSource(11))
	subs := map[string][][2]string{}
	for _, tw := range geoTwins {
		for i := 0; i < 80; i++ {
			params := geoParams(rng, len(tw.params))
			a, err := c.Subscribe(tw.name, params, "")
			if err != nil {
				t.Fatal(err)
			}
			b, err := c.Subscribe(tw.name+"Scan", params, "")
			if err != nil {
				t.Fatal(err)
			}
			subs[tw.name] = append(subs[tw.name], [2]string{a, b})
		}
		ix := c.groups[tw.name].index
		if ix == nil || ix.spec.circle == nil || c.groups[tw.name+"Scan"].index != nil {
			t.Fatalf("%s: the geo index is not where it belongs", tw.name)
		}
		if n, u := ix.size(); n == 0 || (tw.name == "Circle" && u == 0) {
			t.Fatalf("%s: %d indexed, %d unindexed subscriptions; the draw misses a case", tw.name, n, u)
		}
	}
	g0 := c.Stats().EvalGroups.Value()
	for i := 0; i < 200; i++ {
		clk.Advance(time.Second)
		var err error
		if batch := geoRecords(rng, 1+rng.Intn(3)*rng.Intn(4)); len(batch) == 1 {
			_, err = c.Ingest("DS", batch[0])
		} else {
			_, err = c.IngestBatch("DS", batch)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	results := 0
	for _, tw := range geoTwins {
		nth := map[string]int{} // a subscription's index among subs[tw.name]
		for i, pair := range subs[tw.name] {
			results += sameResults(t, c, pair[0], pair[1], clk.Now())
			nth[pair[0]], nth[pair[1]] = i+1, -i-1
		}
		var order, twinOrder []int
		for _, n := range notes.notes {
			if i := nth[n.SubscriptionID]; i > 0 {
				order = append(order, i)
			} else if i < 0 {
				twinOrder = append(twinOrder, -i)
			}
		}
		if !slices.Equal(order, twinOrder) {
			t.Errorf("%s notifies its subscriptions in another order than its twin", tw.name)
		}
		got, want := c.evalErrors.With(tw.name).Value(), c.evalErrors.With(tw.name+"Scan").Value()
		if got != want {
			t.Errorf("%s: %v evaluation errors, its twin %v", tw.name, got, want)
		}
		if tw.name == "Circle" && got == 0 {
			t.Errorf("%s: no evaluation raised; the draw misses the records without a point", tw.name)
		}
	}
	if results < 500 {
		t.Errorf("only %d results in all; the draw no longer matches much", results)
	}
	// The twins scanned every group on every ingest; the indexed channels
	// must have pruned most, or this test compares two scans.
	scanned := 0.0
	for _, tw := range geoTwins {
		scanned += 200 * float64(len(c.groups[tw.name+"Scan"].table))
	}
	if pruned := c.Stats().EvalGroups.Value() - g0 - scanned; pruned > scanned/2 {
		t.Errorf("the indexed channels evaluated %v groups, their twins %v; the index pruned too little", pruned, scanned)
	}
}

// Groups come and go while publications are matched: stable
// subscriptions still get exactly what their scanning twins get, and once
// the churn is over the grid holds exactly the remaining groups.
func TestGeoIndexChurnWhileIngesting(t *testing.T) {
	c := NewCluster()
	defineGeoTwins(t, c)
	rng := rand.New(rand.NewSource(5))
	var stable [][2]string
	var pool [][]any // parameters the churn reuses, to join existing groups
	for i := 0; i < 40; i++ {
		params := geoParams(rng, 4)
		a, err := c.Subscribe("Circle", params, "")
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.Subscribe("CircleScan", params, "")
		if err != nil {
			t.Fatal(err)
		}
		stable = append(stable, [2]string{a, b})
		pool = append(pool, params)
	}
	batches := make([][]map[string]any, 200)
	for i := range batches {
		batches[i] = geoRecords(rng, 1+rng.Intn(2)*rng.Intn(5))
	}
	churn := make([][]any, 300)
	for i := range churn {
		if churn[i] = geoParams(rng, 4); i%3 == 0 {
			churn[i] = pool[rng.Intn(len(pool))]
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, b := range batches {
			if _, err := c.IngestBatch("DS", b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		var live []string
		for i, params := range churn {
			id, err := c.Subscribe("Circle", params, "")
			if err != nil {
				t.Error(err)
				return
			}
			if live = append(live, id); i%2 == 1 {
				j := i % len(live)
				if err := c.Unsubscribe(live[j]); err != nil {
					t.Error(err)
					return
				}
				live = append(live[:j], live[j+1:]...)
			}
		}
		for _, id := range live {
			if err := c.Unsubscribe(id); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	for _, pair := range stable {
		sameResults(t, c, pair[0], pair[1], c.clock())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cg := c.groups["Circle"]
	ix := cg.index
	if len(cg.bySig) != len(cg.table) {
		t.Fatalf("%d groups, %d table rows", len(cg.bySig), len(cg.table))
	}
	placed, unplaced, levels := 0, 0, map[int]int{}
	for _, g := range cg.bySig {
		if cg.table[g.pos].g != g {
			t.Fatalf("group %s is not at its table position %d", g.sig, g.pos)
		}
		if !g.idxOK {
			if unplaced++; !slices.Contains(ix.unindexed, g) {
				t.Fatalf("unplaced group %s is not in the unindexed list", g.sig)
			}
			continue
		}
		if g.box.spans(g.box.level) > 2 || g.box.spans(g.box.level-1) <= 2 {
			t.Fatalf("group %s sits at level %d, not the finest where its box spans at most 2×2 cells", g.sig, g.box.level)
		}
		levels[g.box.level]++
		g.box.cells(func(cell gridCell) {
			placed++
			if !slices.Contains(ix.cells[cell], g) {
				t.Fatalf("group %s is missing from cell %+v", g.sig, cell)
			}
		})
	}
	inCells := 0
	for _, list := range ix.cells {
		inCells += len(list)
	}
	if inCells != placed || len(ix.unindexed) != unplaced {
		t.Fatalf("the grid holds %d entries and %d unindexed groups, want %d and %d", inCells, len(ix.unindexed), placed, unplaced)
	}
	for _, l := range ix.levels {
		if levels[l.level] != l.groups {
			t.Fatalf("level %d counts %d groups, %d are placed there", l.level, l.groups, levels[l.level])
		}
		delete(levels, l.level)
	}
	if len(levels) != 0 {
		t.Fatalf("levels in use but not listed: %v", levels)
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

// TestIndexSkipsAggregateBodies: an aggregate without GROUP BY yields a row
// over an empty match set, so pruning its groups would change what they
// publish. Such a body is not indexed, of either kind, and delivers what
// its unindexable twin delivers; a GROUP BY aggregate, which yields nothing
// over nothing, still is.
func TestIndexSkipsAggregateBodies(t *testing.T) {
	c, clk := newTestCluster(t)
	setupEmergencyCluster(t, c)
	const geo = "geo_distance(r.location.lat, r.location.lon, $lat, $lon) <= $radius"
	for _, ch := range []ChannelDef{
		{Name: "Count", Params: []string{"e"}, Body: "select count(*) as n from EmergencyReports r where r.etype = $e"},
		{Name: "CountScan", Params: []string{"e"}, Body: "select count(*) as n from EmergencyReports r where contains(r.etype, $e) and len(r.etype) = len($e)"},
		{Name: "GeoCount", Params: []string{"lat", "lon", "radius"}, Body: "select count(*) as n, max(r.severity) as worst from EmergencyReports r where " + geo},
		{Name: "GeoCountScan", Params: []string{"lat", "lon", "radius"}, Body: "select count(*) as n, max(r.severity) as worst from EmergencyReports r where " + strings.Replace(geo, ") <=", ") + 0 <=", 1)},
		{Name: "Grouped", Params: []string{"e"}, Body: "select r.etype as etype, count(*) as n from EmergencyReports r where r.etype = $e group by r.etype"},
	} {
		if err := c.DefineChannel(ch); err != nil {
			t.Fatal(err)
		}
	}
	var twins [][2]string
	subscribe := func(channel string, params []any) {
		a, err := c.Subscribe(channel, params, "")
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.Subscribe(channel+"Scan", params, "")
		if err != nil {
			t.Fatal(err)
		}
		twins = append(twins, [2]string{a, b})
	}
	for _, e := range []string{"fire", "flood"} {
		subscribe("Count", []any{e})
	}
	subscribe("GeoCount", []any{33.6, -117.9, 2.0})
	subscribe("GeoCount", []any{10.0, 10.0, 2.0}) // nowhere near a record
	if _, err := c.Subscribe("Grouped", []any{"flood"}, ""); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Count", "GeoCount"} {
		if ix := c.groups[name].index; ix != nil {
			t.Errorf("%s is indexed; an aggregate without GROUP BY must scan", name)
		}
	}
	if c.groups["Grouped"].index == nil {
		t.Error("Grouped is not indexed; a GROUP BY aggregate prunes exactly")
	}
	for i := 0; i < 12; i++ {
		clk.Advance(time.Second)
		mustIngest(t, c, "EmergencyReports", report("fire", float64(i%4), 33.6, -117.9))
	}
	for _, tw := range twins {
		if n := sameResults(t, c, tw[0], tw[1], clk.Now()); n != 12 {
			t.Errorf("%s holds %d results, want one per publication", tw[0], n)
		}
	}
}

// TestResultIDMatchesFormat: result IDs are byte for byte what
// fmt.Sprintf("%s-r%06d") wrote, past six digits and for an ID holding a
// verb.
func TestResultIDMatchesFormat(t *testing.T) {
	for _, c := range []struct {
		sub string
		seq uint64
	}{
		{"bsub-000001", 1}, {"bsub-000001", 999999}, {"bsub-000001", 1000000},
		{"bsub-%d%s%%", 42}, {"", 0}, {"é\xff", 1<<64 - 1},
	} {
		if got, want := resultID(c.sub, c.seq), fmt.Sprintf("%s-r%06d", c.sub, c.seq); got != want {
			t.Errorf("resultID(%q, %d) = %q, want %q", c.sub, c.seq, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = resultID("bsub-000001", 7) }); n > 1 {
		t.Errorf("resultID = %v allocs, want 1", n)
	}
}
