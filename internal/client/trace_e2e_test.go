package client

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gobad/internal/bcs"
	"gobad/internal/bdms"
	"gobad/internal/broker"
	"gobad/internal/core"
	"gobad/internal/obs"
	"gobad/internal/obs/span"
)

// traceStack is a full-HTTP delivery pipeline: cluster with a webhook
// notifier, an "owner" broker whose cache holds every fabric key, an "edge"
// broker that always misses locally (NC policy) and peer-hops to the owner,
// and a traced client connected to the edge over WebSocket. Each process
// keeps its own span recorder; the e2e test assembles one trace from all
// four.
type traceStack struct {
	clusterSrv *httptest.Server
	clusterRec *span.Recorder
	owner      *broker.Broker
	ownerRec   *span.Recorder
	edge       *broker.Broker
	edgeSrv    *httptest.Server
	edgeRec    *span.Recorder
	clientRec  *span.Recorder
	client     *Client
}

func newTraceStack(t *testing.T) *traceStack {
	t.Helper()
	st := &traceStack{}

	notifier := bdms.NewWebhookNotifier(2, 64, nil)
	t.Cleanup(notifier.Close)
	cluster := bdms.NewCluster(bdms.WithNotifier(notifier))
	clusterHTTP := bdms.NewServer(cluster)
	st.clusterSrv = httptest.NewServer(clusterHTTP.Handler())
	t.Cleanup(st.clusterSrv.Close)
	st.clusterRec = clusterHTTP.Observer().Traces
	if err := cluster.CreateDataset("EmergencyReports", bdms.Schema{}); err != nil {
		t.Fatal(err)
	}
	if err := cluster.DefineChannel(bdms.ChannelDef{
		Name:   "Alerts",
		Params: []string{"etype"},
		Body:   "select * from EmergencyReports r where r.etype = $etype",
	}); err != nil {
		t.Fatal(err)
	}

	// Owner: LSC, so the cluster's notification prefetches results into its
	// cache, from which it vouches for peer lookups.
	ownerSrv := httptest.NewUnstartedServer(nil)
	ownerSrv.Start()
	t.Cleanup(ownerSrv.Close)
	owner, err := broker.New(broker.Config{
		ID:          "owner",
		Backend:     bdms.NewClient(st.clusterSrv.URL, nil),
		CallbackURL: ownerSrv.URL + "/v1/callbacks/results",
		Policy:      core.LSC{},
		CacheBudget: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	ownerHTTP := broker.NewServer(owner)
	ownerSrv.Config.Handler = ownerHTTP.Handler()
	st.owner = owner
	st.ownerRec = ownerHTTP.Observer().Traces

	// Edge: NC, so every retrieval is a local miss that must hop to the
	// owner (the ring's only member) before it may fall back to the cluster.
	edgeSrv := httptest.NewUnstartedServer(nil)
	edgeSrv.Start()
	t.Cleanup(edgeSrv.Close)
	edge, err := broker.New(broker.Config{
		ID:          "edge",
		Backend:     bdms.NewClient(st.clusterSrv.URL, nil),
		CallbackURL: edgeSrv.URL + "/v1/callbacks/results",
		Policy:      core.NC{},
		Fabric:      &broker.FabricConfig{Peers: bdms.NewPeerClient(nil)},
	})
	if err != nil {
		t.Fatal(err)
	}
	edgeHTTP := broker.NewServer(edge)
	edgeSrv.Config.Handler = edgeHTTP.Handler()
	if !edge.SetRing(bcs.RingView{Epoch: 1, Brokers: []bcs.BrokerInfo{
		{ID: "owner", Address: ownerSrv.URL},
	}}) {
		t.Fatal("SetRing rejected the initial view")
	}
	st.edge = edge
	st.edgeSrv = edgeSrv
	st.edgeRec = edgeHTTP.Observer().Traces

	st.clientRec = span.NewRecorder("badclient")
	c, err := New(Config{
		Subscriber: "edna",
		BrokerURL:  edgeSrv.URL,
		Traces:     st.clientRec,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	st.client = c
	return st
}

// spansOf collects the spans a recorder retained for one trace, by name.
func spansOf(rec *span.Recorder, traceID string) map[string]span.Record {
	out := map[string]span.Record{}
	for _, tr := range rec.Snapshot() {
		if tr.TraceID != traceID {
			continue
		}
		for _, s := range tr.Spans {
			out[s.Name] = s
		}
	}
	return out
}

// awaitSpans polls until the recorder has retained every named span of the
// trace (span finalization races the HTTP responses that complete them).
func awaitSpans(t *testing.T, rec *span.Recorder, traceID string, names ...string) map[string]span.Record {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := spansOf(rec, traceID)
		missing := ""
		for _, n := range names {
			if _, ok := got[n]; !ok {
				missing = n
				break
			}
		}
		if missing == "" {
			return got
		}
		if time.Now().After(deadline) {
			have := make([]string, 0, len(got))
			for n := range got {
				have = append(have, n)
			}
			t.Fatalf("trace %s never retained span %q; recorder has %v", traceID, missing, have)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// publishTraced ingests one matching record under a fresh trace and
// returns that trace's ID.
func (st *traceStack) publishTraced(t *testing.T, body string) string {
	t.Helper()
	parent := obs.NewSpan()
	req, err := http.NewRequest(http.MethodPost,
		st.clusterSrv.URL+"/v1/datasets/EmergencyReports/records",
		bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceparentHeader, parent.Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		t.Fatalf("ingest returned %d", resp.StatusCode)
	}
	return parent.TraceIDString()
}

// awaitPush receives the push frame of one traced publication and waits
// until the owner can vouch for the full range, so the retrieval that
// follows is served by the peer hop rather than the cluster fallback.
func (st *traceStack) awaitPush(t *testing.T, traceID string) broker.PushNotification {
	t.Helper()
	var note broker.PushNotification
	select {
	case note = <-st.client.Notifications():
	case <-time.After(10 * time.Second):
		t.Fatal("publication never reached the client")
	}
	// The push frame itself carried the trace context end-to-end.
	sc, ok := obs.ParseTraceparent(note.Traceparent)
	if !ok {
		t.Fatalf("push frame traceparent %q unparseable", note.Traceparent)
	}
	if sc.TraceIDString() != traceID {
		t.Fatalf("push frame trace = %s, want the publication's %s", sc.TraceIDString(), traceID)
	}
	fk := broker.FabricKey("Alerts", []any{"fire"})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := st.owner.PeerResults(fk, 0, time.Duration(note.LatestNS), true); ok {
			return note
		}
		if time.Now().After(deadline) {
			t.Fatal("owner never became able to vouch for the published range")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEndToEndDeliveryTrace drives a publication through the whole
// pipeline — cluster evaluation, webhook to the edge broker, WebSocket push,
// peer-hop cache miss, client retrieval — and asserts that every hop joined
// the single trace rooted at the ingest request, with stage timestamps in
// pipeline order, and that the per-stage SLO histogram on the edge saw the
// same decomposition. The delivery's trace ends at the retrieval; its ack
// rides the NEXT retrieval's request, so a second publication shows
// broker.client_ack for the first as the first child of the second's GET.
func TestEndToEndDeliveryTrace(t *testing.T) {
	st := newTraceStack(t)

	// The owner holds a live subscription for the same channel, so its LSC
	// cache is the fabric's authoritative copy of the results.
	if _, err := st.owner.Subscribe("olga", "Alerts", []any{"fire"}); err != nil {
		t.Fatal(err)
	}
	if err := st.client.Listen(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.client.Subscribe("Alerts", []any{"fire"}); err != nil {
		t.Fatal(err)
	}

	// Publish with an explicit traceparent: the trace ID below is the one
	// identity every span of the first delivery must carry.
	traceID := st.publishTraced(t, `{"etype":"fire","severity":9}`)
	note := st.awaitPush(t, traceID)

	items, err := st.client.GetResults(note.FrontendSub)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 {
		t.Fatalf("got %d results, want 1", len(items))
	}
	if h := st.edge.Stats().PeerHits.Value(); h != 1 {
		t.Fatalf("edge peer hits = %v, want 1 (retrieval must have peer-hopped)", h)
	}

	// Assemble the one trace from all four recorders.
	const resultsRoute = "http /v1/subscriptions/{fs}/results"
	clusterSpans := awaitSpans(t, st.clusterRec, traceID, "cluster.ingest", "cluster.eval")
	edgeSpans := awaitSpans(t, st.edgeRec, traceID,
		"broker.notify", "session.ws_write", resultsRoute, "cache.peer_hop", "fabric.peer_lookup")
	awaitSpans(t, st.ownerRec, traceID, "http /v1/peer/results/{key}")
	clientSpans := awaitSpans(t, st.clientRec, traceID, "client.get_results")
	if _, ok := spansOf(st.clientRec, traceID)["client.ack"]; ok {
		t.Error("a tracked retrieval recorded a client.ack span: the ack must ride the next GET")
	}

	// Stage timestamps run in pipeline order: evaluation before the broker
	// saw the notification, before the socket write, before the client's
	// retrieval, before the broker's handler, before its cache resolution —
	// where the delivery's trace ends.
	order := []span.Record{
		clusterSpans["cluster.eval"],
		edgeSpans["broker.notify"],
		edgeSpans["session.ws_write"],
		clientSpans["client.get_results"],
		edgeSpans[resultsRoute],
		edgeSpans["cache.peer_hop"],
	}
	for i := 1; i < len(order); i++ {
		if order[i].StartNano < order[i-1].StartNano {
			t.Errorf("stage %s started at %d, before upstream %s at %d",
				order[i].Name, order[i].StartNano, order[i-1].Name, order[i-1].StartNano)
		}
	}
	if got, want := edgeSpans["cache.peer_hop"].ParentID, edgeSpans[resultsRoute].SpanID; got != want {
		t.Errorf("cache.peer_hop parent = %s, want the results handler %s", got, want)
	}
	// The listening client retrieved over its notification socket, under the
	// results route's own span.
	if attrs := edgeSpans[resultsRoute].Attrs; attrs["transport"] != "ws" || attrs["method"] != "WS" {
		t.Errorf("results span attrs = %v, want transport=ws and method=WS", attrs)
	}
	// Delivery 1 is handed out but not yet acknowledged at the broker.
	if m, err := st.edge.Marker("edna", note.FrontendSub); err != nil || int64(m) >= note.LatestNS {
		t.Fatalf("edge marker after retrieval 1 = %d, %v; want below %d", m, err, note.LatestNS)
	}

	// Retrieval 2 carries the ack for delivery 1: broker.client_ack is the
	// first child of its GET, ahead of the cache resolution, and the marker
	// has reached delivery 1's timestamp.
	trace2 := st.publishTraced(t, `{"etype":"fire","severity":3}`)
	note2 := st.awaitPush(t, trace2)
	if items, err := st.client.GetResults(note2.FrontendSub); err != nil || len(items) != 1 {
		t.Fatalf("retrieval 2 = %d items, %v; want 1", len(items), err)
	}
	edge2 := awaitSpans(t, st.edgeRec, trace2, resultsRoute, "broker.client_ack", "cache.peer_hop")
	get2, ack2, hop2 := edge2[resultsRoute], edge2["broker.client_ack"], edge2["cache.peer_hop"]
	if ack2.ParentID != get2.SpanID || hop2.ParentID != get2.SpanID {
		t.Errorf("retrieval 2: client_ack parent %s, cache parent %s, want both %s",
			ack2.ParentID, hop2.ParentID, get2.SpanID)
	}
	if ack2.StartNano < get2.StartNano || hop2.StartNano < ack2.StartNano+ack2.DurationNS {
		t.Errorf("retrieval 2: ack [%d +%d] must run inside the GET (from %d) and finish before the cache resolution (%d)",
			ack2.StartNano, ack2.DurationNS, get2.StartNano, hop2.StartNano)
	}
	if m, _ := st.edge.Marker("edna", note.FrontendSub); int64(m) != note.LatestNS {
		t.Errorf("edge marker after retrieval 2 = %d, want delivery 1's %d", m, note.LatestNS)
	}

	// The edge's /metrics exposes the same decomposition as labeled SLO
	// histogram series.
	mresp, err := http.Get(st.edgeSrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"bad_delivery_latency_seconds",
		`stage="queue_wait"`,
		`stage="ws_write"`,
		`stage="retrieve",outcome="peer_hop"`,
		`stage="peer_lookup"`,
		`stage="client_ack"`,
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("edge /metrics missing %s", want)
		}
	}
}
