package bdms

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// testClock is a controllable clock for cluster tests.
type testClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *testClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

func newTestCluster(t *testing.T, opts ...Option) (*Cluster, *testClock) {
	t.Helper()
	clk := &testClock{}
	opts = append([]Option{WithClock(clk.Now)}, opts...)
	return NewCluster(opts...), clk
}

// collectNotifier records notifications.
type collectNotifier struct {
	mu    sync.Mutex
	notes []NotificationPayload
}

func (n *collectNotifier) NotifyContext(_ context.Context, subID, _ string, latest time.Duration) {
	n.mu.Lock()
	n.notes = append(n.notes, NotificationPayload{SubscriptionID: subID, LatestNS: int64(latest)})
	n.mu.Unlock()
}

func (n *collectNotifier) count() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.notes)
}

func setupEmergencyCluster(t *testing.T, c *Cluster) {
	t.Helper()
	if err := c.CreateDataset("EmergencyReports", Schema{}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateDataset("Shelters", Schema{}); err != nil {
		t.Fatal(err)
	}
}

func report(etype string, sev float64, lat, lon float64) map[string]any {
	return map[string]any{
		"etype":    etype,
		"severity": sev,
		"location": map[string]any{"lat": lat, "lon": lon},
	}
}

func TestCreateDataset(t *testing.T) {
	c, _ := newTestCluster(t)
	if err := c.CreateDataset("DS", Schema{}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateDataset("DS", Schema{}); err == nil {
		t.Error("duplicate dataset should fail")
	}
	if err := c.CreateDataset("", Schema{}); err == nil {
		t.Error("empty name should fail")
	}
	if got := c.DatasetNames(); len(got) != 1 || got[0] != "DS" {
		t.Errorf("DatasetNames = %v", got)
	}
}

func TestSchemaValidation(t *testing.T) {
	s := Schema{Fields: []Field{
		{Name: "etype", Type: TypeString},
		{Name: "severity", Type: TypeNumber},
		{Name: "note", Type: TypeString, Optional: true},
		{Name: "loc", Type: TypeObject},
		{Name: "tags", Type: TypeArray, Optional: true},
		{Name: "active", Type: TypeBool, Optional: true},
	}}
	ok := map[string]any{
		"etype": "fire", "severity": 3.0,
		"loc": map[string]any{"lat": 1.0}, "extra": "accepted",
	}
	if err := s.Validate(ok); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
	bad := []map[string]any{
		{"severity": 3.0, "loc": map[string]any{}},               // missing etype
		{"etype": 7.0, "severity": 3.0, "loc": map[string]any{}}, // wrong type
		{"etype": "x", "severity": "high", "loc": map[string]any{}},
		{"etype": "x", "severity": 1.0, "loc": "downtown"},
		{"etype": "x", "severity": 1.0, "loc": map[string]any{}, "tags": "notarray"},
		{"etype": "x", "severity": 1.0, "loc": map[string]any{}, "active": "yes"},
	}
	for i, rec := range bad {
		if err := s.Validate(rec); err == nil {
			t.Errorf("bad record %d accepted", i)
		}
	}
}

func TestSchemaIntAcceptedAsNumber(t *testing.T) {
	s := Schema{Fields: []Field{{Name: "n", Type: TypeNumber}}}
	if err := s.Validate(map[string]any{"n": 5}); err != nil {
		t.Errorf("Go int should validate as number: %v", err)
	}
}

func TestIngestValidatesAndPartitions(t *testing.T) {
	c, clk := newTestCluster(t)
	setupEmergencyCluster(t, c)
	clk.Advance(time.Second)
	for i := 0; i < 100; i++ {
		if _, err := c.Ingest("EmergencyReports", report("fire", 2, 33, -117)); err != nil {
			t.Fatal(err)
		}
	}
	ds := c.Dataset("EmergencyReports")
	if ds.Len() != 100 {
		t.Errorf("Len = %d", ds.Len())
	}
	if _, err := c.Ingest("NoSuchDS", report("x", 1, 0, 0)); err == nil {
		t.Error("unknown dataset should fail")
	}
	if _, err := c.Ingest("EmergencyReports", nil); err == nil {
		t.Error("nil record should fail")
	}
}

func TestScanSinceOrdered(t *testing.T) {
	c, _ := newTestCluster(t)
	setupEmergencyCluster(t, c)
	for i := 0; i < 50; i++ {
		if _, err := c.Ingest("EmergencyReports", report("fire", float64(i), 33, -117)); err != nil {
			t.Fatal(err)
		}
	}
	recs := c.Dataset("EmergencyReports").ScanSince(20)
	if len(recs) != 30 {
		t.Fatalf("got %d records, want 30", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(21+i) {
			t.Fatalf("rec %d has seq %d, want %d", i, r.Seq, 21+i)
		}
	}
}

func TestDefineChannelValidation(t *testing.T) {
	c, _ := newTestCluster(t)
	setupEmergencyCluster(t, c)
	ok := ChannelDef{
		Name:   "ByType",
		Params: []string{"etype"},
		Body:   "select * from EmergencyReports r where r.etype = $etype",
	}
	if err := c.DefineChannel(ok); err != nil {
		t.Fatal(err)
	}
	if err := c.DefineChannel(ok); err == nil {
		t.Error("duplicate channel should fail")
	}
	bad := []ChannelDef{
		{Name: "", Body: "select * from EmergencyReports"},
		{Name: "b1", Body: "not a query"},
		{Name: "b2", Body: "select * from NoSuchDS"},
		{Name: "b3", Body: "select * from EmergencyReports r where r.x = $undeclared"},
	}
	for _, def := range bad {
		if err := c.DefineChannel(def); err == nil {
			t.Errorf("channel %+v should be rejected", def.Name)
		}
	}
	if got := c.Channels(); len(got) != 1 || got[0].Name != "ByType" {
		t.Errorf("Channels = %v", got)
	}
}

func TestContinuousChannelMatching(t *testing.T) {
	notes := &collectNotifier{}
	c, clk := newTestCluster(t, WithNotifier(notes))
	setupEmergencyCluster(t, c)
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
	clk.Advance(time.Second)
	if _, err := c.Ingest("EmergencyReports", report("fire", 4, 33, -117)); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if _, err := c.Ingest("EmergencyReports", report("tornado", 5, 33, -117)); err != nil {
		t.Fatal(err)
	}

	fire, err := c.Results(subFire, 0, clk.Now(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(fire) != 1 {
		t.Fatalf("fire sub got %d results, want 1", len(fire))
	}
	if row := rowsOf(t, fire[0])[0]; row["etype"] != "fire" {
		t.Errorf("row = %v", row)
	}
	if fire[0].Size <= 0 {
		t.Error("result size should be positive")
	}
	flood, err := c.Results(subFlood, 0, clk.Now(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(flood) != 0 {
		t.Errorf("flood sub got %d results, want 0", len(flood))
	}
	if notes.count() != 1 {
		t.Errorf("notifications = %d, want 1", notes.count())
	}
	if c.Stats().ResultsProduced.Value() != 1 {
		t.Errorf("results produced = %v", c.Stats().ResultsProduced.Value())
	}
}

func TestRepetitiveChannelExecution(t *testing.T) {
	notes := &collectNotifier{}
	c, clk := newTestCluster(t, WithNotifier(notes))
	setupEmergencyCluster(t, c)
	if err := c.DefineChannel(ChannelDef{
		Name:   "SevereDigest",
		Params: []string{"min"},
		Body:   "select * from EmergencyReports r where r.severity >= $min",
		Period: 10 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe("SevereDigest", []any{3.0}, "cb")
	if err != nil {
		t.Fatal(err)
	}
	// Publications before the period elapses.
	clk.Advance(2 * time.Second)
	mustIngest(t, c, "EmergencyReports", report("fire", 4, 33, -117))
	mustIngest(t, c, "EmergencyReports", report("flood", 1, 33, -117)) // below min
	clk.Advance(2 * time.Second)
	mustIngest(t, c, "EmergencyReports", report("tornado", 5, 33, -117))

	if n := c.RunRepetitiveDue(); n != 0 {
		t.Errorf("no execution due before the period, got %d", n)
	}
	clk.Advance(7 * time.Second) // t = 11s >= 10s
	if n := c.RunRepetitiveDue(); n != 1 {
		t.Errorf("executions = %d, want 1", n)
	}
	res, err := c.Results(sub, 0, clk.Now(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d result objects, want 1 (one per execution)", len(res))
	}
	if n := len(rowsOf(t, res[0])); n != 2 {
		t.Errorf("digest rows = %d, want 2 (severity >= 3)", n)
	}
	// A second execution with no new publications produces nothing.
	clk.Advance(10 * time.Second)
	if n := c.RunRepetitiveDue(); n != 1 {
		t.Errorf("second execution should run, got %d", n)
	}
	res2, err := c.Results(sub, 0, clk.Now(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2) != 1 {
		t.Errorf("no-new-data execution must not produce results; got %d objects", len(res2))
	}
	// New publication -> next execution produces exactly the new rows.
	mustIngest(t, c, "EmergencyReports", report("fire", 5, 34, -118))
	clk.Advance(10 * time.Second)
	c.RunRepetitiveDue()
	res3, err := c.Results(sub, 0, clk.Now(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res3) != 2 || len(rowsOf(t, res3[len(res3)-1])) != 1 {
		t.Errorf("incremental execution wrong: %d objects", len(res3))
	}
}

// rowsOf decodes a result object's rows, as a subscriber does.
func rowsOf(t *testing.T, r ResultObject) []map[string]any {
	t.Helper()
	var rows []map[string]any
	if err := json.Unmarshal(r.Rows, &rows); err != nil {
		t.Fatalf("result %s rows %q: %v", r.ID, r.Rows, err)
	}
	return rows
}

func mustIngest(t *testing.T, c *Cluster, ds string, data map[string]any) {
	t.Helper()
	if _, err := c.Ingest(ds, data); err != nil {
		t.Fatal(err)
	}
}

func TestRepetitiveSubscriptionSeesOnlyPostSubscriptionData(t *testing.T) {
	c, clk := newTestCluster(t)
	setupEmergencyCluster(t, c)
	mustIngest(t, c, "EmergencyReports", report("fire", 5, 33, -117)) // pre-subscription
	if err := c.DefineChannel(ChannelDef{
		Name: "All", Params: nil,
		Body: "select * from EmergencyReports", Period: 5 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe("All", nil, "cb")
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(6 * time.Second)
	c.RunRepetitiveDue()
	res, err := c.Results(sub, 0, clk.Now(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("pre-subscription publications must not produce results; got %d", len(res))
	}
}

func TestNextRepetitiveRun(t *testing.T) {
	c, clk := newTestCluster(t)
	setupEmergencyCluster(t, c)
	if _, ok := c.NextRepetitiveRun(); ok {
		t.Error("no repetitive subs yet")
	}
	if err := c.DefineChannel(ChannelDef{
		Name: "R", Body: "select * from EmergencyReports", Period: 30 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if _, err := c.Subscribe("R", nil, "cb"); err != nil {
		t.Fatal(err)
	}
	at, ok := c.NextRepetitiveRun()
	if !ok || at != 31*time.Second {
		t.Errorf("NextRepetitiveRun = %v, %v; want 31s", at, ok)
	}
}

func TestSubscribeValidation(t *testing.T) {
	c, _ := newTestCluster(t)
	setupEmergencyCluster(t, c)
	if err := c.DefineChannel(ChannelDef{
		Name: "Alerts", Params: []string{"etype"},
		Body: "select * from EmergencyReports r where r.etype = $etype",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe("NoSuch", nil, "cb"); err == nil {
		t.Error("unknown channel should fail")
	}
	if _, err := c.Subscribe("Alerts", []any{"a", "b"}, "cb"); err == nil {
		t.Error("wrong arity should fail")
	}
}

func TestUnsubscribeStopsResults(t *testing.T) {
	c, clk := newTestCluster(t)
	setupEmergencyCluster(t, c)
	if err := c.DefineChannel(ChannelDef{
		Name: "All", Body: "select * from EmergencyReports",
	}); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe("All", nil, "cb")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Unsubscribe(sub); err != nil {
		t.Fatal(err)
	}
	if err := c.Unsubscribe(sub); err == nil {
		t.Error("double unsubscribe should fail")
	}
	clk.Advance(time.Second)
	mustIngest(t, c, "EmergencyReports", report("fire", 1, 0, 0))
	if _, err := c.Results(sub, 0, clk.Now(), true); err == nil {
		t.Error("results for removed subscription should fail")
	}
	if c.NumSubscriptions() != 0 {
		t.Errorf("subs = %d", c.NumSubscriptions())
	}
}

func TestResultsRangeSemantics(t *testing.T) {
	c, clk := newTestCluster(t)
	setupEmergencyCluster(t, c)
	if err := c.DefineChannel(ChannelDef{
		Name: "All", Body: "select * from EmergencyReports",
	}); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe("All", nil, "cb")
	if err != nil {
		t.Fatal(err)
	}
	var stamps []time.Duration
	for i := 0; i < 5; i++ {
		clk.Advance(time.Second)
		mustIngest(t, c, "EmergencyReports", report("fire", float64(i), 0, 0))
		ts, err := c.LatestTimestamp(sub)
		if err != nil {
			t.Fatal(err)
		}
		stamps = append(stamps, ts)
	}
	// Timestamps strictly increasing.
	for i := 1; i < len(stamps); i++ {
		if stamps[i] <= stamps[i-1] {
			t.Fatal("timestamps must be strictly increasing")
		}
	}
	// (stamps[0], stamps[3]] -> 3 objects
	res, err := c.Results(sub, stamps[0], stamps[3], true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Errorf("inclusive range returned %d, want 3", len(res))
	}
	// (stamps[0], stamps[3]) -> 2 objects
	res, err = c.Results(sub, stamps[0], stamps[3], false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Errorf("exclusive range returned %d, want 2", len(res))
	}
}

func TestEnrichedNotifications(t *testing.T) {
	c, clk := newTestCluster(t)
	setupEmergencyCluster(t, c)
	// Reference data: two shelters, one near the emergency.
	mustIngest(t, c, "Shelters", map[string]any{
		"shelter_id": "near", "capacity": 100.0,
		"location": map[string]any{"lat": 33.01, "lon": -117.0},
	})
	mustIngest(t, c, "Shelters", map[string]any{
		"shelter_id": "far", "capacity": 50.0,
		"location": map[string]any{"lat": 40.0, "lon": -100.0},
	})
	err := c.DefineChannel(ChannelDef{
		Name:   "EmergWithShelters",
		Params: []string{"etype"},
		Body:   "select * from EmergencyReports r where r.etype = $etype",
		Enrich: []EnrichSpec{{
			Name:  "shelters",
			Query: "select * from Shelters s where geo_distance(s.location.lat, s.location.lon, $lat, $lon) <= 25",
			Bind:  map[string]string{"lat": "location.lat", "lon": "location.lon"},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe("EmergWithShelters", []any{"fire"}, "cb")
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	mustIngest(t, c, "EmergencyReports", report("fire", 4, 33.0, -117.0))
	res, err := c.Results(sub, 0, clk.Now(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d results", len(res))
	}
	row := rowsOf(t, res[0])[0]
	shelters, ok := row["shelters"].([]any)
	if !ok {
		t.Fatalf("enrichment missing or wrong type: %T", row["shelters"])
	}
	if len(shelters) != 1 || shelters[0].(map[string]any)["shelter_id"] != "near" {
		t.Errorf("enrichment = %v, want only the near shelter", shelters)
	}
	// The original stored record must not have been mutated.
	rec := c.Dataset("EmergencyReports").ScanSince(0)[0]
	if _, polluted := rec.Data["shelters"]; polluted {
		t.Error("enrichment must not mutate the stored publication")
	}
}

func TestEnrichValidation(t *testing.T) {
	c, _ := newTestCluster(t)
	setupEmergencyCluster(t, c)
	bad := []ChannelDef{
		{Name: "e1", Body: "select * from EmergencyReports",
			Enrich: []EnrichSpec{{Name: "", Query: "select * from Shelters"}}},
		{Name: "e2", Body: "select * from EmergencyReports",
			Enrich: []EnrichSpec{{Name: "x", Query: "bad query"}}},
		{Name: "e3", Body: "select * from EmergencyReports",
			Enrich: []EnrichSpec{{Name: "x", Query: "select * from Shelters s where s.a = $nope"}}},
		{Name: "e4", Body: "select * from EmergencyReports",
			Enrich: []EnrichSpec{{Name: "x", Query: "select * from NoSuchDS"}}},
	}
	for _, def := range bad {
		if err := c.DefineChannel(def); err == nil {
			t.Errorf("channel %s should be rejected", def.Name)
		}
	}
}

func TestLookupPath(t *testing.T) {
	rec := map[string]any{
		"a": map[string]any{"b": map[string]any{"c": 42.0}},
		"x": 1.0,
	}
	if got := lookupPath(rec, "a.b.c"); got != 42.0 {
		t.Errorf("a.b.c = %v", got)
	}
	if got := lookupPath(rec, "x"); got != 1.0 {
		t.Errorf("x = %v", got)
	}
	if got := lookupPath(rec, "a.missing"); got != nil {
		t.Errorf("missing = %v", got)
	}
	if got := lookupPath(rec, "x.deeper"); got != nil {
		t.Errorf("through scalar = %v", got)
	}
}

func TestConcurrentIngestAndSubscribe(t *testing.T) {
	c, clk := newTestCluster(t)
	setupEmergencyCluster(t, c)
	if err := c.DefineChannel(ChannelDef{
		Name: "All", Body: "select * from EmergencyReports",
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				clk.Advance(time.Millisecond)
				if _, err := c.Ingest("EmergencyReports", report("fire", 1, 0, 0)); err != nil {
					t.Error(err)
					return
				}
				if i%10 == 0 {
					id, err := c.Subscribe("All", nil, fmt.Sprintf("cb-%d-%d", w, i))
					if err != nil {
						t.Error(err)
						return
					}
					if _, err := c.Results(id, 0, clk.Now(), true); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Dataset("EmergencyReports").Len(); got != 200 {
		t.Errorf("ingested %d, want 200", got)
	}
}

func TestAggregateDigestChannel(t *testing.T) {
	c, clk := newTestCluster(t)
	setupEmergencyCluster(t, c)
	if err := c.DefineChannel(ChannelDef{
		Name:   "Digest",
		Params: []string{"min"},
		Body: "select r.etype as etype, count(*) as reports, max(r.severity) as worst " +
			"from EmergencyReports r where r.severity >= $min group by r.etype order by reports desc",
		Period: 30 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe("Digest", []any{2.0}, "cb")
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	mustIngest(t, c, "EmergencyReports", report("fire", 5, 0, 0))
	mustIngest(t, c, "EmergencyReports", report("fire", 3, 0, 0))
	mustIngest(t, c, "EmergencyReports", report("flood", 4, 0, 0))
	mustIngest(t, c, "EmergencyReports", report("flood", 1, 0, 0)) // below min
	clk.Advance(30 * time.Second)
	c.RunRepetitiveDue()
	res, err := c.Results(sub, 0, clk.Now(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("digest executions = %d, want 1", len(res))
	}
	rows := rowsOf(t, res[0])
	if len(rows) != 2 {
		t.Fatalf("digest groups = %v", rows)
	}
	if rows[0]["etype"] != "fire" || rows[0]["reports"] != 2.0 || rows[0]["worst"] != 5.0 {
		t.Errorf("fire group = %v", rows[0])
	}
	if rows[1]["etype"] != "flood" || rows[1]["reports"] != 1.0 {
		t.Errorf("flood group = %v", rows[1])
	}
}

func TestDeleteChannel(t *testing.T) {
	c, _ := newTestCluster(t)
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
	if err := c.DeleteChannel("Alerts"); err == nil {
		t.Error("channel with live subscriptions must not be deletable")
	}
	if err := c.Unsubscribe(sub); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteChannel("Alerts"); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteChannel("Alerts"); err == nil {
		t.Error("double delete should fail")
	}
	if _, err := c.Subscribe("Alerts", []any{"fire"}, ""); err == nil {
		t.Error("subscribing a deleted channel should fail")
	}
}

func TestAdHocQuery(t *testing.T) {
	c, clk := newTestCluster(t)
	setupEmergencyCluster(t, c)
	clk.Advance(time.Second)
	for i := 0; i < 6; i++ {
		mustIngest(t, c, "EmergencyReports", report([]string{"fire", "flood"}[i%2], float64(i), 0, 0))
	}
	rows, err := c.Query(
		"select r.etype as etype, count(*) as n from EmergencyReports r where r.severity >= $min group by r.etype",
		map[string]any{"min": 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if _, err := c.Query("select * from NoSuchDS", nil); err == nil {
		t.Error("unknown dataset should fail")
	}
	if _, err := c.Query("not a query", nil); err == nil {
		t.Error("bad statement should fail")
	}
}
