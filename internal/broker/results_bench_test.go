package broker_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gobad/internal/bdms"
	"gobad/internal/broker"
	"gobad/internal/client"
	"gobad/internal/core"
)

// BenchmarkResultsRouteHit is the whole hit round trip of fanout_hot:
// client.GetResults — the subscriber's request, carrying its ack, the
// broker's middleware and results route, the cached object's bytes on the
// wire and the subscriber's decode — against an httptest broker. 32
// subscribers share one backend subscription, as a fanout_hot signature's
// do; every 32 retrievals one new ~700-byte object is pushed into the
// cache (off the clock), so each retrieval is served exactly one object
// from the cache.
func BenchmarkResultsRouteHit(b *testing.B) {
	const fanout = 32
	cluster := bdms.NewCluster()
	if err := cluster.CreateDataset("EmergencyReports", bdms.Schema{}); err != nil {
		b.Fatal(err)
	}
	if err := cluster.DefineChannel(bdms.ChannelDef{Name: "Alerts", Params: []string{"etype"},
		Body: "select * from EmergencyReports r where r.etype = $etype"}); err != nil {
		b.Fatal(err)
	}
	brk, err := broker.New(broker.Config{ID: "broker-1", Backend: cluster, Policy: core.LSC{}, CacheBudget: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(broker.NewServer(brk).Handler())
	defer srv.Close()
	subs := make([]*client.Client, fanout)
	fss := make([]string, fanout)
	for i := range subs {
		if subs[i], err = client.New(client.Config{Subscriber: fmt.Sprintf("sub-%02d", i),
			BrokerURL: srv.URL, HTTPClient: srv.Client()}); err != nil {
			b.Fatal(err)
		}
		if fss[i], err = subs[i].Subscribe("Alerts", []any{"fire"}); err != nil {
			b.Fatal(err)
		}
	}
	bsID, err := brk.BackendSubID("sub-00", fss[0])
	if err != nil {
		b.Fatal(err)
	}
	rows, err := json.Marshal([]map[string]any{{"etype": "fire", "severity": 3.0,
		"location": map[string]any{"lat": 33.64, "lon": -117.84},
		"message":  strings.Repeat("structure fire near campus; ", 22)}})
	if err != nil {
		b.Fatal(err)
	}
	seq := 0
	push := func() {
		seq++
		ts := time.Duration(seq) * time.Millisecond
		if err := brk.HandleNotificationContext(context.Background(), bsID, ts, []bdms.ResultObject{{
			ID: fmt.Sprintf("%s-r%06d", bsID, seq), SubscriptionID: bsID, Timestamp: ts,
			Rows: rows, Size: int64(len(rows)),
		}}); err != nil {
			b.Fatal(err)
		}
	}
	get := func(i int) {
		items, err := subs[i].GetResults(fss[i])
		if err != nil || len(items) != 1 || !items[0].FromCache {
			b.Fatalf("retrieval %d = %d items, %v; want one cached object", i, len(items), err)
		}
	}
	for i := 0; i < fanout; i++ { // warm every connection
		if i == 0 {
			push()
		}
		get(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		i := n % fanout
		if i == 0 {
			b.StopTimer()
			push()
			b.StartTimer()
		}
		get(i)
	}
}
