package bdms

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"gobad/internal/aql"
	"gobad/internal/obs"
	"gobad/internal/obs/span"
)

// --- shared-evaluation accounting -----------------------------------------

// With S subscriptions spread over G parameter signatures, one publication
// must run G channel evaluations, not S (the acceptance criterion of the
// group-evaluation rework).
func TestEvalGroupsGrowWithSignaturesNotSubscriptions(t *testing.T) {
	c, _ := newTestCluster(t)
	if err := c.CreateDataset("Events", Schema{}); err != nil {
		t.Fatal(err)
	}
	// No equality conjunct, so every group is a candidate on every ingest.
	if err := c.DefineChannel(ChannelDef{
		Name: "Range", Params: []string{"min"},
		Body: "select * from Events e where e.level >= $min",
	}); err != nil {
		t.Fatal(err)
	}
	const subs, sigs = 100, 5
	for i := 0; i < subs; i++ {
		if _, err := c.Subscribe("Range", []any{float64(i % sigs)}, "cb"); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.NumEvalGroups(); got != sigs {
		t.Fatalf("NumEvalGroups = %d, want %d", got, sigs)
	}
	g0, s0 := c.Stats().EvalGroups.Value(), c.Stats().EvalSubsServed.Value()
	mustIngest(t, c, "Events", map[string]any{"level": 10.0})
	if got := c.Stats().EvalGroups.Value() - g0; got != sigs {
		t.Errorf("eval groups per publication = %v, want %d (G, not S)", got, sigs)
	}
	if got := c.Stats().EvalSubsServed.Value() - s0; got != subs {
		t.Errorf("subs served per publication = %v, want %d", got, subs)
	}
}

// Numeric parameter forms that evaluate identically (the query layer
// normalizes every number to float64) must land in the same group.
func TestSignatureGroupingNormalizesNumericForms(t *testing.T) {
	c, _ := newTestCluster(t)
	if err := c.CreateDataset("Events", Schema{}); err != nil {
		t.Fatal(err)
	}
	if err := c.DefineChannel(ChannelDef{
		Name: "Range", Params: []string{"min"},
		Body: "select * from Events e where e.level >= $min",
	}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []any{3, int64(3), 3.0, float32(3)} {
		if _, err := c.Subscribe("Range", []any{v}, "cb"); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.NumEvalGroups(); got != 1 {
		t.Errorf("NumEvalGroups = %d, want 1 (int/float forms of 3 are one signature)", got)
	}
	if _, err := c.Subscribe("Range", []any{"3"}, "cb"); err != nil {
		t.Fatal(err)
	}
	if got := c.NumEvalGroups(); got != 2 {
		t.Errorf("NumEvalGroups = %d, want 2 (the string \"3\" is a distinct signature)", got)
	}
}

// Unsubscribing must shrink groups and drop empty ones from every index.
func TestUnsubscribeMaintainsGroups(t *testing.T) {
	c, _ := newTestCluster(t)
	if err := c.CreateDataset("Events", Schema{}); err != nil {
		t.Fatal(err)
	}
	if err := c.DefineChannel(ChannelDef{
		Name: "ByKind", Params: []string{"kind"},
		Body: "select * from Events e where e.kind = $kind",
	}); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 6; i++ {
		id, err := c.Subscribe("ByKind", []any{fmt.Sprintf("k%d", i%2)}, "cb")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if got := c.NumEvalGroups(); got != 2 {
		t.Fatalf("NumEvalGroups = %d, want 2", got)
	}
	// Remove all members of the k0 group (even indices).
	for i := 0; i < 6; i += 2 {
		if err := c.Unsubscribe(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.NumEvalGroups(); got != 1 {
		t.Errorf("NumEvalGroups after unsubscribes = %d, want 1", got)
	}
	// The equality index must have forgotten the empty bucket too: an
	// ingest for k0 should run zero evaluations.
	g0 := c.Stats().EvalGroups.Value()
	mustIngest(t, c, "Events", map[string]any{"kind": "k0"})
	if got := c.Stats().EvalGroups.Value() - g0; got != 0 {
		t.Errorf("evaluations for a signature with no subscribers = %v, want 0", got)
	}
	if err := c.DeleteChannel("ByKind"); err == nil {
		t.Error("DeleteChannel must still refuse while k1 subscribers live")
	}
	for i := 1; i < 6; i += 2 {
		if err := c.Unsubscribe(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.DeleteChannel("ByKind"); err != nil {
		t.Errorf("DeleteChannel after all unsubscribes: %v", err)
	}
}

// --- repetitive channels ---------------------------------------------------

// Two subscriptions binding the same parameters to a repetitive channel
// must share one execution per tick (the satellite regression test).
func TestRepetitiveSameParamsRunOneEvaluation(t *testing.T) {
	notes := &collectNotifier{}
	c, clk := newTestCluster(t, WithNotifier(notes))
	setupEmergencyCluster(t, c)
	if err := c.DefineChannel(ChannelDef{
		Name: "Digest", Params: []string{"min"},
		Body:   "select * from EmergencyReports r where r.severity >= $min",
		Period: 10 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	subA, err := c.Subscribe("Digest", []any{3.0}, "cbA")
	if err != nil {
		t.Fatal(err)
	}
	subB, err := c.Subscribe("Digest", []any{3}, "cbB") // int form, same signature
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	mustIngest(t, c, "EmergencyReports", report("fire", 4, 33, -117))
	mustIngest(t, c, "EmergencyReports", report("flood", 5, 33, -117))
	clk.Advance(10 * time.Second)
	g0 := c.Stats().EvalGroups.Value()
	if n := c.RunRepetitiveDue(); n != 1 {
		t.Errorf("executions = %d, want 1 (one shared group, two subscriptions)", n)
	}
	if got := c.Stats().EvalGroups.Value() - g0; got != 1 {
		t.Errorf("eval groups per tick = %v, want 1", got)
	}
	resA, err := c.Results(subA, 0, clk.Now(), true)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := c.Results(subB, 0, clk.Now(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(resA) != 1 || len(resB) != 1 {
		t.Fatalf("results = %d/%d objects, want 1/1", len(resA), len(resB))
	}
	if !bytes.Equal(resA[0].Rows, resB[0].Rows) {
		t.Error("group members must receive identical rows")
	}
	if n := len(rowsOf(t, resA[0])); n != 2 {
		t.Errorf("digest rows = %d, want 2", n)
	}
	if notes.count() != 2 {
		t.Errorf("notifications = %d, want 2 (one per member)", notes.count())
	}
}

// --- batch ingest ----------------------------------------------------------

func TestIngestBatchProducesOneResultPerGroup(t *testing.T) {
	notes := &collectNotifier{}
	c, clk := newTestCluster(t, WithNotifier(notes))
	setupEmergencyCluster(t, c)
	if err := c.DefineChannel(ChannelDef{
		Name: "ByType", Params: []string{"etype"},
		Body: "select * from EmergencyReports r where r.etype = $etype",
	}); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe("ByType", []any{"fire"}, "cb")
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	g0 := c.Stats().EvalGroups.Value()
	recs, err := c.IngestBatch("EmergencyReports", []map[string]any{
		report("fire", 4, 33, -117),
		report("flood", 2, 33, -117),
		report("fire", 5, 34, -118),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("records = %d, want 3", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			t.Errorf("batch seqs not increasing: %d then %d", recs[i-1].Seq, recs[i].Seq)
		}
	}
	// One evaluation over the batch, one result object with both fire rows.
	if got := c.Stats().EvalGroups.Value() - g0; got != 1 {
		t.Errorf("eval groups for the batch = %v, want 1", got)
	}
	res, err := c.Results(sub, 0, clk.Now(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("result objects = %d, want 1 (amortized over the batch)", len(res))
	}
	if n := len(rowsOf(t, res[0])); n != 2 {
		t.Errorf("rows = %d, want 2 fire reports", n)
	}
	if notes.count() != 1 {
		t.Errorf("notifications = %d, want 1", notes.count())
	}
	if got := c.Stats().IngestBatches.Value(); got != 1 {
		t.Errorf("IngestBatches = %v, want 1", got)
	}
	if got := c.Stats().Ingested.Value(); got != 3 {
		t.Errorf("Ingested = %v, want 3", got)
	}
}

func TestIngestBatchAtomicValidation(t *testing.T) {
	c, _ := newTestCluster(t)
	if err := c.CreateDataset("Typed", Schema{Fields: []Field{
		{Name: "n", Type: TypeNumber},
	}}); err != nil {
		t.Fatal(err)
	}
	_, err := c.IngestBatch("Typed", []map[string]any{
		{"n": 1.0},
		{"n": "not-a-number"},
		{"n": 3.0},
	})
	if err == nil {
		t.Fatal("batch with an invalid record must be rejected")
	}
	if got := c.Dataset("Typed").Len(); got != 0 {
		t.Errorf("rejected batch stored %d records, want 0 (atomic)", got)
	}
	if got := c.Stats().Ingested.Value(); got != 0 {
		t.Errorf("Ingested = %v, want 0", got)
	}
	if _, err := c.IngestBatch("Typed", nil); err == nil {
		t.Error("empty batch must be rejected")
	}
	if _, err := c.IngestBatch("Nope", []map[string]any{{"n": 1.0}}); err == nil {
		t.Error("unknown dataset must be rejected")
	}
}

func TestBatchIngestEndpoint(t *testing.T) {
	cluster, _ := newTestCluster(t)
	setupEmergencyCluster(t, cluster)
	if err := cluster.DefineChannel(ChannelDef{
		Name: "Severe", Params: []string{"min"},
		Body: "select * from EmergencyReports r where r.severity >= $min",
	}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(cluster).Handler())
	defer srv.Close()
	client := NewClient(srv.URL, srv.Client())
	subID, err := client.Subscribe("Severe", []any{3.0}, "cb")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.IngestBatch("EmergencyReports", []map[string]any{
		report("fire", 4, 33, -117),
		report("flood", 1, 33, -117),
		report("tornado", 5, 33, -117),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Seqs) != 3 {
		t.Fatalf("seqs = %v, want 3 entries", resp.Seqs)
	}
	res, err := cluster.Results(subID, 0, cluster.Now()+time.Second, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(rowsOf(t, res[0])) != 2 {
		t.Fatalf("results = %+v, want one object with 2 rows", res)
	}
	// A bad batch is a 400, not a partial store.
	if _, err := client.IngestBatch("EmergencyReports", nil); err == nil {
		t.Error("empty batch must fail over HTTP too")
	}
}

// --- unsubscribe vs in-flight evaluation -----------------------------------

// Concurrent subscribe/unsubscribe/ingest churn: the eval stage snapshots
// members outside the lock, so an unsubscribe can race a running
// evaluation — the commit must drop results for dead subscriptions rather
// than resurrecting them. Run under -race (chaos tier).
func TestUnsubscribeDuringEvalRace(t *testing.T) {
	c, _ := newTestCluster(t)
	if err := c.CreateDataset("Events", Schema{}); err != nil {
		t.Fatal(err)
	}
	if err := c.DefineChannel(ChannelDef{
		Name: "Range", Params: []string{"min"},
		Body: "select * from Events e where e.level >= $min",
	}); err != nil {
		t.Fatal(err)
	}
	const churners = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < churners; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				id, err := c.Subscribe("Range", []any{float64(rng.Intn(4))}, "cb")
				if err != nil {
					t.Error(err)
					return
				}
				if err := c.Unsubscribe(id); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 500; i++ {
		if i%10 == 0 {
			if _, err := c.IngestBatch("Events", []map[string]any{
				{"level": float64(i % 7)}, {"level": float64(i % 5)},
			}); err != nil {
				t.Fatal(err)
			}
			continue
		}
		mustIngest(t, c, "Events", map[string]any{"level": float64(i % 7)})
	}
	close(stop)
	wg.Wait()
	// All churned subscriptions are gone: groups and indexes must be empty.
	if got := c.NumSubscriptions(); got != 0 {
		t.Errorf("NumSubscriptions = %d, want 0", got)
	}
	if got := c.NumEvalGroups(); got != 0 {
		t.Errorf("NumEvalGroups = %d, want 0 (empty groups must be dropped)", got)
	}
}

// --- equivalence property test --------------------------------------------

// refSub is the reference model of one subscription: per publication batch
// (or repetitive tick) it evaluates the channel independently with its own
// parameters — the pre-grouping per-subscription semantics.
type refSub struct {
	id      string
	chName  string
	params  map[string]any
	batches [][]map[string]any // expected Rows of each result object
}

// refEvaluate appends the per-subscription evaluation of recs, mirroring
// what the grouped engine should produce for this subscription.
func (rs *refSub) refEvaluate(t *testing.T, c *Cluster, recs []Record) {
	t.Helper()
	ch := c.channels[rs.chName]
	var enrichDS map[string]*Dataset
	if len(ch.enrich) > 0 {
		enrichDS = make(map[string]*Dataset)
		for _, e := range ch.enrich {
			enrichDS[e.query.Dataset] = c.datasets[e.query.Dataset]
		}
	}
	rows, err := aql.RunQuery(ch.query, recordData(recs), rs.params)
	if err == nil && len(rows) > 0 && len(ch.enrich) > 0 {
		rows, err = enrich(ch, rs.params, rows, enrichDS)
	}
	if err != nil {
		t.Fatalf("reference eval: %v", err)
	}
	if len(rows) > 0 {
		rs.batches = append(rs.batches, rows)
	}
}

// TestGroupedEvalEquivalence drives randomized channels, parameters,
// publications, batches, repetitive ticks and mid-stream churn through the
// grouped engine and asserts byte-identical results (and the same
// order-normalized notification multiset) as a per-subscription reference
// evaluator.
func TestGroupedEvalEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			testGroupedEvalEquivalence(t, seed)
		})
	}
}

func testGroupedEvalEquivalence(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	notes := &collectNotifier{}
	c, clk := newTestCluster(t, WithNotifier(notes))
	if err := c.CreateDataset("Events", Schema{}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateDataset("Aux", Schema{}); err != nil {
		t.Fatal(err)
	}
	// Static enrichment source, seeded before any evaluation.
	for i := 0; i < 4; i++ {
		mustIngest(t, c, "Aux", map[string]any{"kind": fmt.Sprintf("k%d", i), "hint": float64(i)})
	}
	// Channel zoo: indexed equality, unindexed range, enriched, repetitive.
	defs := []ChannelDef{
		{Name: "ByKind", Params: []string{"kind", "min"},
			Body: "select * from Events e where e.kind = $kind and e.level >= $min"},
		{Name: "Range", Params: []string{"min"},
			Body: "select * from Events e where e.level >= $min"},
		{Name: "Enriched", Params: []string{"kind"},
			Body: "select * from Events e where e.kind = $kind",
			Enrich: []EnrichSpec{{
				Name:  "aux",
				Query: "select * from Aux a where a.kind = $kind",
			}}},
		{Name: "Tick", Params: []string{"min"},
			Body:   "select * from Events e where e.level >= $min",
			Period: 10 * time.Second},
	}
	for _, def := range defs {
		if err := c.DefineChannel(def); err != nil {
			t.Fatal(err)
		}
	}
	kinds := []string{"k0", "k1", "k2"}
	// Mixed numeric forms of the same values exercise canonicalization.
	mins := []any{0, 1.0, int64(2), 2.0, 3, float32(1)}
	randParams := func(chName string) []any {
		switch chName {
		case "ByKind":
			return []any{kinds[rng.Intn(len(kinds))], mins[rng.Intn(len(mins))]}
		case "Range", "Tick":
			return []any{mins[rng.Intn(len(mins))]}
		default: // Enriched
			return []any{kinds[rng.Intn(len(kinds))]}
		}
	}
	live := make(map[string]*refSub)
	subscribe := func(chName string) {
		params := randParams(chName)
		id, err := c.Subscribe(chName, params, "cb")
		if err != nil {
			t.Fatal(err)
		}
		ch := c.channels[chName]
		bound, err := ch.bindParams(params)
		if err != nil {
			t.Fatal(err)
		}
		rs := &refSub{id: id, chName: chName, params: canonicalParams(bound)}
		// A joiner inherits the result history of an equivalent live
		// subscription (documented resume semantics) — mirror it.
		sig := paramSignature(rs.params)
		for _, other := range live {
			if other.chName == chName && paramSignature(other.params) == sig {
				rs.batches = append([][]map[string]any(nil), other.batches...)
				break
			}
		}
		live[id] = rs
	}
	// Repetitive subscriptions are created up front only: a mid-stream
	// joiner adopts its group's shared schedule, which a per-subscription
	// reference cannot model.
	for i := 0; i < 4; i++ {
		subscribe("Tick")
	}
	for i := 0; i < 30; i++ {
		subscribe([]string{"ByKind", "Range", "Enriched"}[rng.Intn(3)])
	}

	tickIdx := 0 // publications already consumed by the repetitive tick
	var published []Record
	for step := 0; step < 80; step++ {
		clk.Advance(time.Duration(1+rng.Intn(3)) * time.Second)
		switch op := rng.Intn(10); {
		case op < 5: // single publish
			rec, err := c.Ingest("Events", map[string]any{
				"kind": kinds[rng.Intn(len(kinds))], "level": float64(rng.Intn(5)),
			})
			if err != nil {
				t.Fatal(err)
			}
			published = append(published, rec)
			for _, rs := range live {
				if rs.chName != "Tick" {
					rs.refEvaluate(t, c, []Record{rec})
				}
			}
		case op < 8: // batch publish
			batch := make([]map[string]any, 1+rng.Intn(4))
			for i := range batch {
				batch[i] = map[string]any{
					"kind": kinds[rng.Intn(len(kinds))], "level": float64(rng.Intn(5)),
				}
			}
			recs, err := c.IngestBatch("Events", batch)
			if err != nil {
				t.Fatal(err)
			}
			published = append(published, recs...)
			for _, rs := range live {
				if rs.chName != "Tick" {
					rs.refEvaluate(t, c, recs)
				}
			}
		case op < 9: // continuous churn
			if rng.Intn(2) == 0 {
				subscribe([]string{"ByKind", "Range", "Enriched"}[rng.Intn(3)])
			} else {
				var ids []string
				for id, rs := range live {
					if rs.chName != "Tick" {
						ids = append(ids, id)
					}
				}
				if len(ids) > 0 {
					sort.Strings(ids)
					id := ids[rng.Intn(len(ids))]
					if err := c.Unsubscribe(id); err != nil {
						t.Fatal(err)
					}
					delete(live, id)
				}
			}
		default: // repetitive tick
			clk.Advance(11 * time.Second)
			c.RunRepetitiveDue()
			recs := published[tickIdx:]
			tickIdx = len(published)
			if len(recs) > 0 {
				for _, rs := range live {
					if rs.chName == "Tick" {
						rs.refEvaluate(t, c, recs)
					}
				}
			}
		}
	}

	// Compare every live subscription's stored results to the reference:
	// same object count, byte-identical rows.
	for id, rs := range live {
		res, err := c.Results(id, 0, clk.Now()+time.Hour, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(rs.batches) {
			t.Fatalf("seed sub %s (%s): %d result objects, reference has %d",
				id, rs.chName, len(res), len(rs.batches))
		}
		for i := range res {
			got := res[i].Rows
			want, err := json.Marshal(rs.batches[i])
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("sub %s (%s) result %d:\n got %s\nwant %s", id, rs.chName, i, got, want)
			}
			if res[i].Size != int64(len(want)) {
				t.Errorf("sub %s result %d: Size %d != encoded size", id, i, res[i].Size)
			}
		}
	}

	// Notifications, order-normalized (compared as per-subscription
	// counts): each live subscription must have received exactly one
	// notification per result object it accumulated itself — history
	// inherited at join time was notified to the origin subscription, not
	// the joiner. Seeded objects keep their origin's SubscriptionID, which
	// is how ownBatches tells them apart.
	notes.mu.Lock()
	gotNotes := make(map[string]int)
	for _, n := range notes.notes {
		gotNotes[n.SubscriptionID]++
	}
	notes.mu.Unlock()
	for id, rs := range live {
		if want := ownBatches(c, id); gotNotes[id] != want {
			t.Errorf("sub %s (%s): %d notifications, want %d", id, rs.chName, gotNotes[id], want)
		}
	}
}

// ownBatches counts the result objects a subscription accumulated itself
// (excluding history copied from an equivalent subscription at join time —
// seeded objects keep their origin subscription's ID).
func ownBatches(c *Cluster, subID string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	own := 0
	for _, obj := range c.subs[subID].results {
		if obj.subID == subID {
			own++
		}
	}
	return own
}

// --- evaluation errors -------------------------------------------------------

// A predicate that type-errors on live data used to deliver nothing and
// say nothing. The failing group is now counted per channel, logged once
// per channel per minute under the publication's trace, and marked on the
// cluster.eval span — while sibling groups of the same batch deliver.
func TestEvalErrorsAreCountedLoggedAndTraced(t *testing.T) {
	c, clk := newTestCluster(t)
	var logs bytes.Buffer
	c.SetLogger(obs.NewLogger(&logs, slog.LevelWarn, "test"))
	rec := span.NewRecorder("test")
	c.SetTracing(rec, nil)
	if err := c.CreateDataset("DS", Schema{}); err != nil {
		t.Fatal(err)
	}
	// The matching kind short-circuits past sqrt; every other group
	// reaches it.
	if err := c.DefineChannel(ChannelDef{
		Name: "Roots", Params: []string{"kind"},
		Body: "select * from DS r where r.kind = $kind or sqrt(r.x) >= 0",
	}); err != nil {
		t.Fatal(err)
	}
	subA, err := c.Subscribe("Roots", []any{"a"}, "cb")
	if err != nil {
		t.Fatal(err)
	}
	subB, err := c.Subscribe("Roots", []any{"b"}, "cb")
	if err != nil {
		t.Fatal(err)
	}
	sc := obs.NewSpan()
	ctx := obs.ContextWithSpan(context.Background(), sc)
	ingest := func() {
		t.Helper()
		clk.Advance(time.Second)
		if _, err := c.IngestContext(ctx, "DS", map[string]any{"kind": "a", "x": -1.0}); err != nil {
			t.Fatal(err)
		}
	}
	warnings := func() int { return strings.Count(logs.String(), "channel evaluation failed") }

	ingest()
	if got := c.evalErrors.With("Roots").Value(); got != 1 {
		t.Errorf("bad_cluster_eval_errors_total{channel=Roots} = %v, want 1", got)
	}
	if res, _ := c.Results(subA, 0, clk.Now(), true); len(res) != 1 {
		t.Errorf("sibling group delivered %d results, want 1", len(res))
	}
	if res, _ := c.Results(subB, 0, clk.Now(), true); len(res) != 0 {
		t.Errorf("failing group delivered %d results, want 0", len(res))
	}
	if warnings() != 1 || !strings.Contains(logs.String(), "sqrt of negative number") ||
		!strings.Contains(logs.String(), sc.TraceIDString()) {
		t.Errorf("want one WARN with the error and trace id %s, got:\n%s", sc.TraceIDString(), logs.String())
	}
	var evalErrors string
	for _, tr := range rec.Snapshot() {
		for _, s := range tr.Spans {
			if s.Name == "cluster.eval" {
				evalErrors = s.Attrs["errors"]
			}
		}
	}
	if evalErrors != "1" {
		t.Errorf("cluster.eval span errors attr = %q, want \"1\"", evalErrors)
	}

	ingest() // within the minute: counted, not logged again
	if got := c.evalErrors.With("Roots").Value(); got != 2 {
		t.Errorf("errors counter = %v, want 2", got)
	}
	if warnings() != 1 {
		t.Errorf("warnings within one minute = %d, want 1", warnings())
	}
	clk.Advance(time.Minute)
	ingest()
	if warnings() != 2 {
		t.Errorf("warnings after a minute = %d, want 2", warnings())
	}
}

// --- the scan's cost ---------------------------------------------------------

// A group that does not match costs the scan no allocation, whether the
// severity test, the latitude band or the haversine rejects it.
func TestNonMatchingGroupAllocatesNothing(t *testing.T) {
	c, _ := newTestCluster(t)
	if err := c.CreateDataset("Pubs", Schema{}); err != nil {
		t.Fatal(err)
	}
	if err := c.DefineChannel(ChannelDef{
		Name: "WideAlerts", Params: []string{"minSeverity", "lat", "lon", "radiusKm"},
		Body: "select * from Pubs r where r.severity >= $minSeverity and " +
			"geo_distance(r.location.lat, r.location.lon, $lat, $lon) <= $radiusKm",
	}); err != nil {
		t.Fatal(err)
	}
	for _, p := range [][]any{
		{9.0, 33.5, -118.0, 0.5},  // severity too low
		{1.0, 34.5, -118.0, 0.5},  // latitude band
		{1.0, 33.5, -118.02, 0.5}, // haversine
	} {
		if _, err := c.Subscribe("WideAlerts", p, ""); err != nil {
			t.Fatal(err)
		}
	}
	ch := c.channels["WideAlerts"]
	table := c.groups["WideAlerts"].table
	frames := ch.query.Frames([]map[string]any{{
		"severity": 5.0, "location": map[string]any{"lat": 33.5, "lon": -118.0},
	}})
	allocs := testing.AllocsPerRun(100, func() {
		for _, e := range table {
			if task := evaluate(ch, e, frames, nil, nil); task != nil {
				t.Fatalf("group %s matched (%v, %v)", e.g.sig, task.rows, task.err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("scanning %d non-matching groups cost %v allocs, want 0", len(table), allocs)
	}
}
