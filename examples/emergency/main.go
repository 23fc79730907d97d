// Emergency: the Section VI city-emergency usecase as a real distributed
// deployment on loopback HTTP — a data cluster node, a Broker Coordination
// Service, a caching broker (all three as real HTTP servers), and BAD
// clients that discover the broker through the BCS, subscribe to Table III
// parameterized channels, and receive ENRICHED notifications (emergency
// reports with nearby shelters attached) over WebSockets.
//
// Run with:
//
//	go run ./examples/emergency
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"time"

	"gobad/internal/bcs"
	"gobad/internal/bdms"
	"gobad/internal/broker"
	"gobad/internal/client"
	"gobad/internal/core"
	"gobad/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// serve starts an HTTP server on a random loopback port and returns its
// base URL.
func serve(handler http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() { _ = srv.Close() }, nil
}

func run() error {
	// --- Data cluster node -------------------------------------------
	notifier := bdms.NewWebhookNotifier(4, 256, nil)
	defer notifier.Close()
	cluster := bdms.NewCluster(bdms.WithNotifier(notifier))
	if err := cluster.CreateDataset("EmergencyReports", bdms.Schema{}); err != nil {
		return err
	}
	if err := cluster.CreateDataset("Shelters", bdms.Schema{}); err != nil {
		return err
	}
	// The continuous alert channel, ENRICHED with shelters within 10 km
	// of each reported emergency — the "enriched notifications" of the
	// paper's title: one notification combines data from two datasets.
	if err := cluster.DefineChannel(bdms.ChannelDef{
		Name:   "EnrichedAlerts",
		Params: []string{"etype"},
		Body:   "select * from EmergencyReports r where r.etype = $etype",
		Enrich: []bdms.EnrichSpec{{
			Name:  "nearby_shelters",
			Query: "select * from Shelters s where geo_distance(s.location.lat, s.location.lon, $lat, $lon) <= 10 and s.capacity > 0",
			Bind:  map[string]string{"lat": "location.lat", "lon": "location.lon"},
		}},
	}); err != nil {
		return err
	}
	// Also register the repetitive Table III channels.
	for _, spec := range workload.EmergencyChannels() {
		if err := cluster.DefineChannel(bdms.ChannelDef{
			Name: spec.Name, Params: spec.Params, Body: spec.Body, Period: spec.Period,
		}); err != nil {
			return err
		}
	}
	// Shelter reference data.
	rng := rand.New(rand.NewSource(7))
	for _, s := range workload.ShelterCatalog(rng, 12) {
		if _, err := cluster.Ingest("Shelters", map[string]any{
			"shelter_id": s.ShelterID, "name": s.Name, "capacity": s.Capacity,
			"location": map[string]any{"lat": s.Location.Lat, "lon": s.Location.Lon},
		}); err != nil {
			return err
		}
	}
	clusterURL, stopCluster, err := serve(bdms.NewServer(cluster).Handler())
	if err != nil {
		return err
	}
	defer stopCluster()
	fmt.Println("data cluster:", clusterURL)

	// --- Broker Coordination Service ---------------------------------
	bcsURL, stopBCS, err := serve(bcs.NewServer(bcs.NewService()).Handler())
	if err != nil {
		return err
	}
	defer stopBCS()
	fmt.Println("BCS:        ", bcsURL)

	// --- Broker -------------------------------------------------------
	brokerLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	brokerURL := "http://" + brokerLn.Addr().String()
	b, err := broker.New(broker.Config{
		ID:          "edge-broker-1",
		Backend:     bdms.NewClient(clusterURL, nil),
		CallbackURL: brokerURL + "/v1/callbacks/results",
		Policy:      core.LSC{},
		CacheBudget: 4 << 20,
	})
	if err != nil {
		return err
	}
	brokerSrv := &http.Server{Handler: broker.NewServer(b).Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = brokerSrv.Serve(brokerLn) }()
	defer brokerSrv.Close()
	reg, err := broker.RegisterWithBCS(b, bcs.NewClient(bcsURL, nil), brokerURL, time.Second)
	if err != nil {
		return err
	}
	defer reg.Close()
	fmt.Println("broker:     ", brokerURL)

	// --- Subscribers --------------------------------------------------
	// They discover the broker via the BCS and listen on WebSockets.
	subscribers := []string{"alice", "bob"}
	clients := make(map[string]*client.Client, len(subscribers))
	for _, name := range subscribers {
		c, err := client.New(client.Config{
			Subscriber: name,
			BCS:        bcs.NewClient(bcsURL, nil),
		})
		if err != nil {
			return err
		}
		defer c.Close()
		if err := c.Listen(); err != nil {
			return err
		}
		if _, err := c.Subscribe("EnrichedAlerts", []any{"flood"}); err != nil {
			return err
		}
		clients[name] = c
	}
	fmt.Printf("subscribed: %d frontend -> %d backend subscription(s)\n\n",
		b.NumFrontendSubs(), b.NumBackendSubs())

	// --- A publisher reports a flood ----------------------------------
	if _, err := bdms.NewClient(clusterURL, nil).Ingest("EmergencyReports", map[string]any{
		"etype": "flood", "severity": 5.0,
		"location": map[string]any{"lat": workload.CityCenter.Lat, "lon": workload.CityCenter.Lon},
		"message":  "flash flooding downtown",
	}); err != nil {
		return err
	}

	// --- Each subscriber gets a push and retrieves the enriched result.
	for _, name := range subscribers {
		c := clients[name]
		select {
		case n := <-c.Notifications():
			items, err := c.GetResults(n.FrontendSub)
			if err != nil {
				return err
			}
			for _, it := range items {
				row := it.Rows[0]
				shelters, _ := row["nearby_shelters"].([]any)
				src := "cluster"
				if it.FromCache {
					src = "broker cache"
				}
				fmt.Printf("%s <- %q (severity %v) with %d nearby shelters [served from %s]\n",
					name, row["message"], row["severity"], len(shelters), src)
			}
		case <-time.After(10 * time.Second):
			return fmt.Errorf("%s never received a notification", name)
		}
	}

	fmt.Printf("\nbroker cache hit ratio: %.2f (the second retrieval shares alice's cached copy)\n",
		b.Stats().HitRatio())
	return nil
}
