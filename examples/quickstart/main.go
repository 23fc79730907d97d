// Quickstart: the smallest end-to-end Big Active Data flow, fully
// in-process — a data cluster with one continuous parameterized channel, a
// caching broker, two subscribers sharing a backend subscription, one
// publication, and retrievals served from the broker cache.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"time"

	"gobad/internal/bdms"
	"gobad/internal/broker"
	"gobad/internal/core"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. A data cluster with an open-schema dataset and a parameterized
	// continuous channel: "alert me about emergencies of type $etype".
	var brk *broker.Broker
	cluster := bdms.NewCluster(
		bdms.WithNotifier(bdms.NotifierFunc(func(ctx context.Context, subID, _ string, latest time.Duration) {
			// In-process wiring: the cluster's webhook IS the broker.
			if brk != nil {
				_ = brk.HandleNotificationContext(ctx, subID, latest, nil)
			}
		})),
	)
	if err := cluster.CreateDataset("EmergencyReports", bdms.Schema{}); err != nil {
		return err
	}
	if err := cluster.DefineChannel(bdms.ChannelDef{
		Name:   "EmergencyAlerts",
		Params: []string{"etype"},
		Body:   "select * from EmergencyReports r where r.etype = $etype",
	}); err != nil {
		return err
	}

	// 2. A broker caching channel results under the LSC policy with a
	// 1 MB budget.
	b, err := broker.New(broker.Config{
		ID:          "quickstart-broker",
		Backend:     cluster,
		Policy:      core.LSC{},
		CacheBudget: 1 << 20,
	})
	if err != nil {
		return err
	}
	brk = b

	// 3. Two subscribers ask for fire alerts; the broker suppresses the
	// duplicate and makes ONE backend subscription.
	fsAlice, err := b.Subscribe("alice", "EmergencyAlerts", []any{"fire"})
	if err != nil {
		return err
	}
	fsBob, err := b.Subscribe("bob", "EmergencyAlerts", []any{"fire"})
	if err != nil {
		return err
	}
	fmt.Printf("frontend subscriptions: %d, backend subscriptions: %d (suppressed)\n",
		b.NumFrontendSubs(), b.NumBackendSubs())

	// 4. A publisher reports a fire; the cluster matches it against the
	// channel, notifies the broker, and the broker caches the result.
	if _, err := cluster.Ingest("EmergencyReports", map[string]any{
		"etype":    "fire",
		"severity": 4,
		"location": map[string]any{"lat": 33.6846, "lon": -117.8265},
		"message":  "structure fire near campus",
	}); err != nil {
		return err
	}

	// 5. Both subscribers retrieve — each gets the result, alice's and
	// bob's retrievals share the single cached copy. A retrieval carries
	// the ack of the one before it (Latest); these are the first, so 0.
	for _, sub := range []struct{ name, fs string }{
		{"alice", fsAlice}, {"bob", fsBob},
	} {
		ret, err := b.RetrieveContext(context.Background(), sub.name, sub.fs, 0)
		if err != nil {
			return err
		}
		for _, it := range ret.Items {
			src := "data cluster"
			if it.FromCache {
				src = "broker cache"
			}
			var rows []map[string]any
			if err := json.Unmarshal(it.Rows, &rows); err != nil {
				return err
			}
			fmt.Printf("%s received %s (%d bytes) from the %s: %v\n",
				sub.name, it.ID, it.Size, src, rows[0]["message"])
		}
	}

	st := b.Stats()
	fmt.Printf("broker cache: hit ratio %.2f, %s cached\n",
		st.HitRatio(), fmt.Sprintf("%dB", b.Manager().TotalSize()))
	return nil
}
