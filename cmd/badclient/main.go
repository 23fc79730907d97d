// Command badclient is an interactive BAD subscriber: it discovers a
// broker (directly or through the BCS), subscribes to a parameterized
// channel, and tails notifications — retrieving and printing enriched
// results as they arrive. The connection is supervised: across a broker
// failure or drain it reconnects, resubscribes and resumes (through the
// BCS with -bcs, against the same broker with -broker).
//
// Usage:
//
//	badclient -bcs http://127.0.0.1:18000 -subscriber alice \
//	          -channel EmergencyAlerts -params '["fire"]'
//	badclient -broker http://127.0.0.1:18080 -subscriber bob \
//	          -channel SevereEmergenciesInCity -params '[3]' -watch 2m
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"gobad/internal/bcs"
	"gobad/internal/broker"
	"gobad/internal/client"
)

func main() {
	brokerURL := flag.String("broker", "", "broker base URL (or use -bcs)")
	bcsURL := flag.String("bcs", "", "BCS base URL for broker discovery")
	subscriber := flag.String("subscriber", "", "subscriber identity (required)")
	channel := flag.String("channel", "", "channel to subscribe to (required)")
	paramsJSON := flag.String("params", "[]", "channel parameters as a JSON array")
	watch := flag.Duration("watch", time.Minute, "how long to tail notifications")
	flag.Parse()

	if err := run(*brokerURL, *bcsURL, *subscriber, *channel, *paramsJSON, *watch); err != nil {
		fmt.Fprintln(os.Stderr, "badclient:", err)
		os.Exit(1)
	}
}

func run(brokerURL, bcsURL, subscriber, channel, paramsJSON string, watch time.Duration) error {
	if subscriber == "" || channel == "" {
		return fmt.Errorf("-subscriber and -channel are required")
	}
	var params []any
	if err := json.Unmarshal([]byte(paramsJSON), &params); err != nil {
		return fmt.Errorf("bad -params: %w", err)
	}
	cfg := client.Config{
		Subscriber: subscriber, BrokerURL: brokerURL,
		OnConnState: func(s client.ConnState, broker string) {
			fmt.Printf("connection %s (broker %s)\n", s, broker)
		},
	}
	if brokerURL == "" {
		if bcsURL == "" {
			return fmt.Errorf("need -broker or -bcs")
		}
		cfg.BCS = bcs.NewClient(bcsURL, nil)
	}
	c, err := client.New(cfg)
	if err != nil {
		return err
	}
	defer c.Close()
	fmt.Printf("connected to broker %s as %q\n", c.BrokerURL(), subscriber)

	if err := c.Listen(); err != nil {
		return err
	}
	fs, err := c.Subscribe(channel, params)
	if err != nil {
		return err
	}
	fmt.Printf("subscribed: %s(%s) -> %s\n", channel, paramsJSON, fs)

	// Catch up on anything produced before we connected.
	if items, err := c.GetResults(fs); err == nil {
		printItems("catch-up", items)
	}

	deadline := time.After(watch)
	fmt.Printf("watching for %v ...\n", watch)
	for {
		select {
		case n := <-c.Notifications():
			items, err := c.GetResults(n.FrontendSub)
			if err != nil {
				fmt.Fprintln(os.Stderr, "retrieve:", err)
				continue
			}
			printItems("push", items)
		case <-deadline:
			fmt.Println("done watching")
			return nil
		}
	}
}

func printItems(origin string, items []broker.ResultItem) {
	for _, it := range items {
		src := "cluster"
		if it.FromCache {
			src = "cache"
		}
		rows, err := json.Marshal(it.Rows)
		if err != nil {
			rows = []byte("<unencodable>")
		}
		fmt.Printf("[%s/%s] %s (%dB): %s\n", origin, src, it.ID, it.Size, rows)
	}
}
