package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"gobad/internal/aql"
	"gobad/internal/bcs"
	"gobad/internal/bdms"
	"gobad/internal/core"
	"gobad/internal/obs"
	"gobad/internal/wsock"
)

// Layer probes: single layers driven through their public API with fixed
// iteration counts, once, after the traced window. They say what one
// operation of a layer costs in isolation; the spans say what it cost
// inside the stack.

const (
	probeParseOps   = 2000
	probeEvalRounds = 200 // x up to 256 records
	probeIngestRecs = 512 // in 32-record batches
	probeFsyncOps   = 24
	probeCoreOps    = 20000
	probeEncodeOps  = 100000
	probeEchoOps    = 500
	probePlaceOps   = 20000
)

// probeRecords returns up to n of the workload's own records.
func probeRecords(p *plan, n int) []map[string]any {
	var out []map[string]any
	for _, evs := range [][]pubEvent{p.warm, p.events} {
		for _, ev := range evs {
			for _, r := range ev.Records {
				if len(out) == n {
					return out
				}
				out = append(out, r)
			}
		}
	}
	return out
}

func runProbes(cfg runConfig, p *plan, out map[string]Metric) error {
	put := func(name string, v float64, unit string) { out[name] = Metric{Value: v, Unit: unit} }
	recs := probeRecords(p, 256)

	// aql: parse and evaluate the workload's own channel bodies.
	start := time.Now()
	for i := 0; i < probeParseOps; i++ {
		if _, err := aql.ParseQuery(p.channels[i%len(p.channels)].Body); err != nil {
			return err
		}
	}
	put("aql.parse_us_per_op", float64(time.Since(start).Microseconds())/probeParseOps, "us")
	// Evaluation: each channel body over the records, bound to the
	// parameters of the channel's first signature.
	var queries []*aql.Query
	var bound []map[string]any
	for _, def := range p.channels {
		for _, sig := range p.sigs {
			if sig.Channel != def.Name {
				continue
			}
			q, err := aql.ParseQuery(def.Body)
			if err != nil {
				return err
			}
			params := make(map[string]any, len(def.Params))
			for i, name := range def.Params {
				params[name] = sig.Params[i]
			}
			queries, bound = append(queries, q), append(bound, params)
			break
		}
	}
	start = time.Now()
	for i := 0; i < probeEvalRounds; i++ {
		k := i % len(queries)
		if _, err := aql.RunQuery(queries[k], recs, bound[k]); err != nil {
			return err
		}
	}
	put("aql.eval_ns_per_op", float64(time.Since(start).Nanoseconds())/float64(probeEvalRounds*len(recs)), "ns")

	// bdms: in-process batch ingest against every signature of the
	// workload, no notifier, no WAL; then the same records with and
	// without a WAL and no subscriptions, whose difference is the append.
	ingest := func(c *bdms.Cluster, subscribe bool) (float64, error) {
		if err := c.CreateDataset(p.dataset, bdms.Schema{}); err != nil {
			return 0, err
		}
		for _, def := range p.channels {
			if err := c.DefineChannel(def); err != nil {
				return 0, err
			}
		}
		if subscribe {
			for _, sig := range p.sigs {
				if _, err := c.Subscribe(sig.Channel, sig.Params, ""); err != nil {
					return 0, err
				}
			}
		}
		start := time.Now()
		n := 0
		for n < probeIngestRecs {
			for i := 0; i+32 <= len(recs) && n < probeIngestRecs; i += 32 {
				if _, err := c.IngestBatch(p.dataset, recs[i:i+32]); err != nil {
					return 0, err
				}
				n += 32
			}
		}
		return float64(time.Since(start).Microseconds()) / float64(n), nil
	}
	us, err := ingest(bdms.NewCluster(), true)
	if err != nil {
		return err
	}
	put("bdms.ingest_inproc_us_per_record", us, "us")
	bare, err := ingest(bdms.NewCluster(), false)
	if err != nil {
		return err
	}
	withStore := func(sync bdms.SyncPolicy, fn func(c *bdms.Cluster) error) error {
		dir, err := os.MkdirTemp(cfg.workDir, "probe-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		st, err := bdms.OpenStore(dir, bdms.StoreConfig{Sync: sync, Logger: obs.NopLogger()})
		if err != nil {
			return err
		}
		defer st.Close()
		return fn(st.Cluster())
	}
	var logged float64
	if err := withStore(bdms.SyncInterval, func(c *bdms.Cluster) (err error) {
		logged, err = ingest(c, false)
		return err
	}); err != nil {
		return err
	}
	put("bdms.wal.append_us_per_record", max(logged-bare, 0), "us")
	// Disk-dependent and ungated: one fsync per ingest.
	var fsyncMS []float64
	if err := withStore(bdms.SyncAlways, func(c *bdms.Cluster) error {
		if err := c.CreateDataset(p.dataset, bdms.Schema{}); err != nil {
			return err
		}
		for i := 0; i < probeFsyncOps; i++ {
			start := time.Now()
			if _, err := c.Ingest(p.dataset, recs[i%len(recs)]); err != nil {
				return err
			}
			fsyncMS = append(fsyncMS, ms(time.Since(start)))
		}
		return nil
	}); err != nil {
		return err
	}
	put("bdms.wal.fsync_p50_ms", median(fsyncMS), "ms")

	if err := probeCore(put); err != nil {
		return err
	}
	if err := probeWsock(put); err != nil {
		return err
	}

	svc := bcs.NewService()
	if err := svc.Register("probe-broker", "http://127.0.0.1:1"); err != nil {
		return err
	}
	start = time.Now()
	for i := 0; i < probePlaceOps; i++ {
		if _, _, err := svc.Place(p.subscribers[i%len(p.subscribers)]); err != nil {
			return err
		}
	}
	put("bcs.place_us_per_op", float64(time.Since(start).Nanoseconds())/1e3/probePlaceOps, "us")
	return nil
}

// probeCore times a bare cache manager: admissions, retrievals served
// from the cache, and retrievals of an evicted range that go to the
// (stub) fetcher.
func probeCore(put func(string, float64, string)) error {
	const size = 512
	fetched := []*core.Object{{ID: "refetched", Size: size}}
	stub := core.FetcherFunc(func(context.Context, string, time.Duration, time.Duration, bool) ([]*core.Object, error) {
		return fetched, nil
	})
	objects := func(n int) []*core.Object {
		out := make([]*core.Object, n)
		for i := range out {
			out[i] = &core.Object{ID: fmt.Sprintf("o-%d", i), Timestamp: time.Duration(i + 1), Size: size}
		}
		return out
	}
	// Budget above everything admitted: puts never evict, reads all hit.
	// Each object is read right after it was admitted, while it is the
	// head of its cache, as a push-driven retrieval finds it.
	m, err := core.NewManager(core.Config{Policy: core.LSC{}, Budget: 2 * probeCoreOps * size, Fetcher: stub})
	if err != nil {
		return err
	}
	m.Subscribe("cache", "reader", 0)
	ctx := context.Background()
	var putNS, hitNS time.Duration
	for i, o := range objects(probeCoreOps) {
		at := time.Duration(i + 1)
		start := time.Now()
		if err := m.Put("cache", o, at); err != nil {
			return err
		}
		mid := time.Now()
		if _, _, err := m.Retrieve(ctx, "cache", "reader", at-1, at, at); err != nil {
			return err
		}
		putNS += mid.Sub(start)
		hitNS += time.Since(mid)
	}
	put("core.put_ns_per_op", float64(putNS.Nanoseconds())/probeCoreOps, "ns")
	put("core.retrieve_hit_ns_per_op", float64(hitNS.Nanoseconds())/probeCoreOps, "ns")

	// Budget of 16 objects: everything older has been evicted, so reading
	// the old range misses.
	small, err := core.NewManager(core.Config{Policy: core.LSC{}, Budget: 16 * size, Fetcher: stub})
	if err != nil {
		return err
	}
	small.Subscribe("cache", "reader", 0)
	small.Subscribe("cache", "other", 0) // keeps objects from being consumed by reads
	for i, o := range objects(1024) {
		if err := small.Put("cache", o, time.Duration(i+1)); err != nil {
			return err
		}
	}
	start := time.Now()
	for i := 0; i < probeCoreOps; i++ {
		from := time.Duration(i % 512)
		if _, _, err := small.Retrieve(ctx, "cache", "reader", from, from+1, 2048); err != nil {
			return err
		}
	}
	put("core.retrieve_miss_ns_per_op", float64(time.Since(start).Nanoseconds())/probeCoreOps, "ns")
	return nil
}

// probeWsock times frame encoding and a loopback echo round trip.
func probeWsock(put func(string, float64, string)) error {
	payload := []byte(`{"type":"results","bs":"bsub-000001","latest_ns":123456789012}`)
	pm, err := wsock.NewPreparedMessage(wsock.OpText, payload)
	if err != nil {
		return err
	}
	start := time.Now()
	for i := 0; i < probeEncodeOps; i++ {
		if err := pm.Encode(wsock.OpText, payload); err != nil {
			return err
		}
	}
	put("wsock.prepared_encode_ns_per_op", float64(time.Since(start).Nanoseconds())/probeEncodeOps, "ns")

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := wsock.Upgrade(w, r)
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			op, msg, err := conn.ReadMessage()
			if err != nil || conn.WriteMessage(op, msg) != nil {
				return
			}
		}
	})}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	conn, err := wsock.Dial("ws://"+ln.Addr().String()+"/", 5*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	start = time.Now()
	for i := 0; i < probeEchoOps; i++ {
		if err := conn.WriteMessage(wsock.OpText, payload); err != nil {
			return err
		}
		if _, _, err := conn.ReadMessage(); err != nil {
			return err
		}
	}
	put("wsock.echo_roundtrip_us", float64(time.Since(start).Nanoseconds())/1e3/probeEchoOps, "us")
	return nil
}
