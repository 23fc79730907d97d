// Package bcs implements the Broker Coordination Service: brokers register
// themselves when they join the broker network, send periodic heartbeats
// with their current load, and subscribers ask the BCS for a suitable
// broker to connect to (Fig. 6's interaction: "when a subscriber comes to
// the system, it contacts the BCS and the BCS returns the IP address and
// port of a suitable broker").
package bcs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// BrokerInfo describes one registered broker.
type BrokerInfo struct {
	// ID is the broker's self-chosen identifier.
	ID string `json:"id"`
	// Address is the broker's client-facing base URL.
	Address string `json:"address"`
	// Load is the broker's self-reported subscriber count.
	Load int `json:"load"`
	// Warming marks a broker that is up but still restoring warm state
	// after a restart; it heartbeats (stays registered) yet is excluded
	// from placement until it reports ready.
	Warming bool `json:"warming,omitempty"`
	// RegisteredAt / LastHeartbeat are service-time offsets.
	RegisteredAt  time.Duration `json:"registered_at"`
	LastHeartbeat time.Duration `json:"last_heartbeat"`
}

// Service is the coordination state. It is safe for concurrent use.
type Service struct {
	mu      sync.Mutex
	brokers map[string]*BrokerInfo
	epoch   time.Time
	clock   func() time.Duration
	// liveness is how stale a heartbeat may be before the broker is
	// considered dead for assignment purposes.
	liveness time.Duration
	// seed perturbs the HRW placement space (WithSeed).
	seed uint64
	// ringEpoch counts observed membership changes. It advances lazily:
	// ringSnapshot fingerprints the live member set and bumps the epoch
	// whenever the fingerprint moved — which folds registrations,
	// deregistrations, address changes, heartbeat expiry and heartbeat
	// revival into one mechanism, with no background reaper.
	ringEpoch uint64
	// lastLive is the fingerprint of the live set at the last snapshot.
	lastLive string
}

// Option configures a Service.
type Option func(*Service)

// WithLiveness sets the heartbeat staleness bound (default 30s).
func WithLiveness(d time.Duration) Option {
	return func(s *Service) {
		if d > 0 {
			s.liveness = d
		}
	}
}

// WithClock overrides the service clock (tests).
func WithClock(clk func() time.Duration) Option {
	return func(s *Service) {
		if clk != nil {
			s.clock = clk
		}
	}
}

// WithSeed sets the HRW placement seed (default 0). Fabrics that share a
// data cluster but must place keys independently should use distinct
// seeds.
func WithSeed(seed uint64) Option {
	return func(s *Service) { s.seed = seed }
}

// NewService returns a ready Service.
func NewService(opts ...Option) *Service {
	s := &Service{
		brokers:  make(map[string]*BrokerInfo),
		epoch:    time.Now(),
		liveness: 30 * time.Second,
	}
	s.clock = func() time.Duration { return time.Since(s.epoch) }
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Register adds (or re-registers) a broker.
func (s *Service) Register(id, address string) error {
	if id == "" || address == "" {
		return fmt.Errorf("bcs: broker registration needs id and address")
	}
	now := s.clock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.brokers[id] = &BrokerInfo{
		ID: id, Address: address,
		RegisteredAt: now, LastHeartbeat: now,
	}
	return nil
}

// Heartbeat refreshes a broker's liveness, load and readiness: warming
// brokers stay registered and live but are excluded from placement until a
// heartbeat reports them ready (which bumps the ring epoch via the live-set
// fingerprint, so cached ring views notice).
func (s *Service) Heartbeat(id string, load int, warming bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.brokers[id]
	if !ok {
		return fmt.Errorf("bcs: unknown broker %q", id)
	}
	b.LastHeartbeat = s.clock()
	b.Load = load
	b.Warming = warming
	return nil
}

// Deregister removes a broker.
func (s *Service) Deregister(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.brokers[id]; !ok {
		return fmt.Errorf("bcs: unknown broker %q", id)
	}
	delete(s.brokers, id)
	return nil
}

// Brokers lists all registered brokers sorted by ID.
func (s *Service) Brokers() []BrokerInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]BrokerInfo, 0, len(s.brokers))
	for _, b := range s.brokers {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Live reports whether a broker's heartbeat is fresh enough for it to be
// handed out: strictly younger than the liveness bound. The boundary is
// exclusive on purpose — the instant a heartbeat's age reaches the bound
// the broker is already dead for assignment, so a subscriber can never be
// pointed at a broker about to be declared gone.
func (s *Service) Live(id string) bool {
	now := s.clock()
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.brokers[id]
	return ok && now-b.LastHeartbeat < s.liveness
}

// ringSnapshot captures the live member set, the clock read, the liveness
// filter and the epoch advance under ONE mutex acquisition. Every
// assignment path builds on it, which closes the race where a broker
// deregistered (or its heartbeat expired) between a liveness check and the
// response: the returned view is internally consistent — a broker is
// either in it or not, decided at a single instant.
func (s *Service) ringSnapshot() RingView {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock()
	live := make([]BrokerInfo, 0, len(s.brokers))
	for _, b := range s.brokers {
		// A warming broker is alive but not ready: leaving it out of the
		// view keeps placement (and drain successors) off it, and its
		// eventual flip to ready changes the fingerprint below — the epoch
		// bump is automatic.
		if now-b.LastHeartbeat < s.liveness && !b.Warming {
			live = append(live, *b)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].ID < live[j].ID })
	var fp strings.Builder
	for i := range live {
		fp.WriteString(live[i].ID)
		fp.WriteByte('=')
		fp.WriteString(live[i].Address)
		fp.WriteByte('\n')
	}
	if got := fp.String(); got != s.lastLive {
		s.lastLive = got
		s.ringEpoch++
	}
	return RingView{Epoch: s.ringEpoch, Seed: s.seed, Brokers: live}
}

// Ring returns the current membership view: epoch, HRW seed and the live
// brokers. Brokers and clients cache it and recompute ownership locally;
// a changed epoch means placement may have moved.
func (s *Service) Ring() RingView { return s.ringSnapshot() }

// Place returns the broker owning subscriberKey under HRW placement over
// the live member set, plus the membership epoch the decision was taken
// at. An empty key degrades to least-loaded assignment, so callers without
// a stable identity still get a broker. A broker whose heartbeat age has
// reached the liveness bound is never returned (see Live for the boundary
// semantics).
func (s *Service) Place(subscriberKey string) (BrokerInfo, uint64, error) {
	view := s.ringSnapshot()
	if len(view.Brokers) == 0 {
		return BrokerInfo{}, view.Epoch, fmt.Errorf("bcs: no live broker available")
	}
	if subscriberKey == "" {
		return leastLoaded(view.Brokers), view.Epoch, nil
	}
	owner, _ := view.Owner(subscriberKey)
	return owner, view.Epoch, nil
}

// leastLoaded picks the lowest-load broker, ID as tiebreak. brokers must
// be non-empty.
func leastLoaded(brokers []BrokerInfo) BrokerInfo {
	best := brokers[0]
	for _, b := range brokers[1:] {
		if b.Load < best.Load || (b.Load == best.Load && b.ID < best.ID) {
			best = b
		}
	}
	return best
}
