package broker

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"gobad/internal/bcs"
	"gobad/internal/httpx"
)

// Registration keeps a broker registered and heartbeating with the Broker
// Coordination Service until closed.
type Registration struct {
	stop chan struct{}
	done sync.WaitGroup
}

// RegisterWithBCS registers the broker at the BCS under its client-facing
// address and starts a heartbeat loop reporting subscriber load every
// interval. Close the returned Registration to deregister.
func RegisterWithBCS(b *Broker, bcsClient *bcs.Client, address string, interval time.Duration) (*Registration, error) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	if err := bcsClient.Register(b.ID(), address); err != nil {
		return nil, fmt.Errorf("broker: BCS registration: %w", err)
	}
	// Report readiness immediately: a broker that registers while still
	// warming must not receive placement before its first ticker beat.
	_ = bcsClient.Heartbeat(b.ID(), b.NumSubscribers(), b.Warming())
	reg := &Registration{stop: make(chan struct{})}
	reg.done.Add(1)
	go func() {
		defer reg.done.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-reg.stop:
				_ = bcsClient.Deregister(b.ID())
				return
			case <-ticker.C:
				// A failed heartbeat is retried on the next tick; the
				// BCS treats stale brokers as dead in the meantime. A 404
				// means the BCS no longer knows this broker — it restarted
				// and lost its registry — so re-register immediately:
				// placement serves this broker again without operator help.
				err := bcsClient.Heartbeat(b.ID(), b.NumSubscribers(), b.Warming())
				var se *httpx.StatusError
				if errors.As(err, &se) && se.Status == http.StatusNotFound {
					_ = bcsClient.Register(b.ID(), address)
				}
			}
		}
	}()
	return reg, nil
}

// Close stops the heartbeat loop and deregisters the broker.
func (r *Registration) Close() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	r.done.Wait()
}
