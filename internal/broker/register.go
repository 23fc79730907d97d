package broker

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
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
// interval. The heartbeat is the broker's one exchange with the BCS: each
// answer that carries a new ring view is installed, and the sessions the
// new ring places elsewhere are migrated. The first view is installed
// before RegisterWithBCS returns. Close the returned Registration to
// deregister.
func RegisterWithBCS(b *Broker, bcsClient *bcs.Client, address string, interval time.Duration) (*Registration, error) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	if err := bcsClient.Register(b.ID(), address); err != nil {
		return nil, fmt.Errorf("broker: BCS registration: %w", err)
	}
	// Heartbeat at once: a broker that registers while still warming must
	// not receive placement before its first ticker beat, and a new broker
	// joins the fabric now rather than an interval later.
	b.heartbeat(bcsClient, address, interval)
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
				b.heartbeat(bcsClient, address, interval)
			}
		}
	}()
	return reg, nil
}

// heartbeat is one beat of the registration loop. A failed heartbeat is
// retried on the next beat; the BCS treats stale brokers as dead in the
// meantime. A 404 means the BCS no longer knows this broker — it restarted
// and lost its registry — so the broker re-registers at once and placement
// serves it again without operator help. The restarted BCS counts its
// epochs from 1 again, so the held ring is dropped too: its epoch may
// name a different view there, and the next beat, at epoch 0, brings the
// current one. An answer carrying a new ring view is installed and the
// sessions it places elsewhere are migrated, within budget (one heartbeat
// interval), so the next beat is never late by more than that: well
// inside the BCS liveness window.
func (b *Broker) heartbeat(c *bcs.Client, address string, budget time.Duration) {
	view, changed, err := c.Heartbeat(b.id, bcs.HeartbeatRequest{
		Load: b.NumSubscribers(), Warming: b.Warming(), Epoch: b.Ring().Epoch,
	})
	var se *httpx.StatusError
	if errors.As(err, &se) && se.Status == http.StatusNotFound {
		b.SetRing(bcs.RingView{})
		_ = c.Register(b.id, address)
		return
	}
	if !changed || !b.SetRing(view) {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	ctx, sp := b.traces.Start(ctx, "fabric.rebalance")
	sp.SetAttr("epoch", strconv.FormatUint(view.Epoch, 10))
	migrated := b.Rebalance(ctx)
	sp.SetAttr("migrated", strconv.Itoa(migrated))
	sp.End()
	b.log.InfoContext(ctx, "ring changed",
		slog.Uint64("epoch", view.Epoch), slog.Int("migrated", migrated))
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
