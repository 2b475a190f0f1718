package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"discover/internal/server"
)

// PeerState is one peer's position in the substrate's failure-detector
// state machine. Invocation outcomes and control-channel heartbeats feed
// it; remote operations consult it before paying a WAN round trip.
type PeerState int

const (
	// PeerHealthy: recent invocations and heartbeats succeed.
	PeerHealthy PeerState = iota
	// PeerSuspect: one or more recent failures (or a missed discovery
	// round) but not enough to declare the peer dead. Operations still go
	// through; the next heartbeat decides.
	PeerSuspect
	// PeerDown: consecutive failures crossed the threshold. The circuit
	// breaker is open — operations fail fast with ErrPeerDown instead of
	// burning an RPC timeout each.
	PeerDown
	// PeerProbing: a recovery probe is in flight for a down peer.
	PeerProbing
)

// String renders the state for stats and logs.
func (s PeerState) String() string {
	switch s {
	case PeerHealthy:
		return "healthy"
	case PeerSuspect:
		return "suspect"
	case PeerDown:
		return "down"
	case PeerProbing:
		return "probing"
	default:
		return fmt.Sprintf("PeerState(%d)", int(s))
	}
}

// Typed fast-fail errors returned while a peer's circuit breaker is open.
// Both carry an API error code (server.Coder) so the HTTP edge maps them
// to the uniform error envelope without this package appearing there.
var (
	// ErrPeerDown: the peer's breaker is open; the operation was not
	// attempted. Callers should degrade (serve cached state, fail a
	// relayed wait) rather than retry immediately.
	ErrPeerDown error = &breakerError{
		msg: "core: peer down (circuit open)", code: "peer_down",
	}
	// ErrPeerSuspect: a recovery probe is deciding the peer's fate;
	// operations are rejected until it concludes.
	ErrPeerSuspect error = &breakerError{
		msg: "core: peer suspect (recovery probe in progress)", code: "peer_suspect",
	}
)

// breakerError is a sentinel (compared with errors.Is by identity, as
// before) that also names its API error code.
type breakerError struct {
	msg  string
	code string
}

func (e *breakerError) Error() string     { return e.msg }
func (e *breakerError) ErrorCode() string { return e.code }

// Failure-detector defaults. Config can override each but
// DefaultSuspectAfter, which is fixed.
const (
	DefaultHeartbeatEvery = 2 * time.Second
	DefaultProbeTimeout   = 2 * time.Second
	DefaultDialTimeout    = 2 * time.Second
	DefaultSuspectAfter   = 1
	DefaultDownAfter      = 3
)

// peerHealth is the detector's record for one peer.
type peerHealth struct {
	name        string
	addr        string
	state       PeerState
	consecFails int
	lastErr     string
	hbRTT       time.Duration // last successful heartbeat round trip
	opens       uint64        // breaker open transitions
	closes      uint64        // breaker close (recovery) transitions
	missedDisc  int           // consecutive discovery rounds without our offer
	// recovered is non-nil while state is Down or Probing; closed (and
	// nilled) when the prober brings the peer back. Parked relay senders
	// select on it instead of hammering a dead peer.
	recovered chan struct{}
}

// healthTable tracks every known peer's health. The onDown/onRecovered
// callbacks run after the table lock is released, so they may call back
// into the substrate freely.
type healthTable struct {
	mu          sync.Mutex
	peers       map[string]*peerHealth
	downAfter   int
	onDown      func(name, addr string)
	onRecovered func(name, addr string)
}

func newHealthTable(downAfter int) *healthTable {
	if downAfter <= 0 {
		downAfter = DefaultDownAfter
	}
	return &healthTable{
		peers:     make(map[string]*peerHealth),
		downAfter: downAfter,
	}
}

func (h *healthTable) entry(name string) *peerHealth {
	p, ok := h.peers[name]
	if !ok {
		p = &peerHealth{name: name, state: PeerHealthy}
		h.peers[name] = p
	}
	return p
}

// state reports a peer's current state (PeerHealthy if unknown).
func (h *healthTable) state(name string) PeerState {
	h.mu.Lock()
	defer h.mu.Unlock()
	if p, ok := h.peers[name]; ok {
		return p.state
	}
	return PeerHealthy
}

// allow is the circuit-breaker gate: nil when an operation may proceed, a
// typed fast-fail error when the peer's breaker is open.
func (h *healthTable) allow(name string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, ok := h.peers[name]
	if !ok {
		return nil
	}
	switch p.state {
	case PeerDown:
		return fmt.Errorf("core: peer %s: %w", name, ErrPeerDown)
	case PeerProbing:
		return fmt.Errorf("core: peer %s: %w", name, ErrPeerSuspect)
	default:
		return nil
	}
}

// reportFailure records a peer-failure-classified invocation outcome.
// Crossing downAfter consecutive failures opens the breaker and fires
// onDown (outside the lock).
func (h *healthTable) reportFailure(name, addr string, err error) {
	h.mu.Lock()
	p := h.entry(name)
	if addr != "" {
		p.addr = addr
	}
	if err != nil {
		p.lastErr = err.Error()
	}
	var fire func(string, string)
	switch p.state {
	case PeerDown, PeerProbing:
		// Already open; probes alone decide recovery.
	default:
		p.consecFails++
		if p.consecFails >= h.downAfter {
			p.state = PeerDown
			p.opens++
			if p.recovered == nil {
				p.recovered = make(chan struct{})
			}
			fire = h.onDown
		} else if p.consecFails >= DefaultSuspectAfter {
			p.state = PeerSuspect
		}
	}
	addrNow := p.addr
	h.mu.Unlock()
	if fire != nil {
		fire(name, addrNow)
	}
}

// reportSuccess records a successful invocation against a peer. It clears
// suspicion but deliberately does NOT close an open breaker: recovery goes
// through the prober so subscriptions get reasserted exactly once.
func (h *healthTable) reportSuccess(name, addr string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.entry(name)
	if addr != "" {
		p.addr = addr
	}
	p.consecFails = 0
	p.missedDisc = 0
	if p.state == PeerSuspect {
		p.state = PeerHealthy
		p.lastErr = ""
	}
}

// heartbeatOK records a successful heartbeat and its round trip.
func (h *healthTable) heartbeatOK(name, addr string, rtt time.Duration) {
	h.mu.Lock()
	p := h.entry(name)
	p.hbRTT = rtt
	h.mu.Unlock()
	h.reportSuccess(name, addr)
}

// beginProbe moves a down peer to probing so concurrent heartbeat rounds
// don't race duplicate probes. Returns false if the peer isn't down.
func (h *healthTable) beginProbe(name string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, ok := h.peers[name]
	if !ok || p.state != PeerDown {
		return false
	}
	p.state = PeerProbing
	return true
}

// finishProbe concludes a recovery probe: alive closes the breaker, wakes
// parked senders and fires onRecovered (outside the lock); dead returns
// the peer to Down for the next heartbeat round.
func (h *healthTable) finishProbe(name string, alive bool, err error) {
	h.mu.Lock()
	p, ok := h.peers[name]
	if !ok || p.state != PeerProbing {
		h.mu.Unlock()
		return
	}
	var fire func(string, string)
	if alive {
		p.state = PeerHealthy
		p.consecFails = 0
		p.missedDisc = 0
		p.lastErr = ""
		p.closes++
		if p.recovered != nil {
			close(p.recovered)
			p.recovered = nil
		}
		fire = h.onRecovered
	} else {
		p.state = PeerDown
		if err != nil {
			p.lastErr = err.Error()
		}
	}
	addrNow := p.addr
	h.mu.Unlock()
	if fire != nil {
		fire(name, addrNow)
	}
}

// blockedCh returns the channel a sender should park on while the peer is
// down or probing, or nil when the peer is usable.
func (h *healthTable) blockedCh(name string) chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, ok := h.peers[name]
	if !ok {
		return nil
	}
	if p.state == PeerDown || p.state == PeerProbing {
		return p.recovered
	}
	return nil
}

// discoverySeen records that this round's trader query returned the peer.
func (h *healthTable) discoverySeen(name, addr string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.entry(name)
	p.addr = addr
	p.missedDisc = 0
}

// keepThroughMiss decides whether a peer absent from this discovery round
// should stay in the peer table. A known-healthy peer whose trader offer
// momentarily lapsed (a late lease refresh) is kept for one round, marked
// suspect, and left to the prober/heartbeat; a second miss, or a peer the
// breaker already declared down, is dropped.
func (h *healthTable) keepThroughMiss(name string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, ok := h.peers[name]
	if !ok {
		return false
	}
	p.missedDisc++
	if p.state == PeerDown || p.state == PeerProbing {
		return false
	}
	if p.missedDisc > 1 {
		return false
	}
	if p.state == PeerHealthy {
		p.state = PeerSuspect
		p.lastErr = "trader offer missing"
	}
	return true
}

// forget drops a peer from the table, waking anything parked on it.
func (h *healthTable) forget(name string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, ok := h.peers[name]
	if !ok {
		return
	}
	if p.recovered != nil {
		close(p.recovered)
		p.recovered = nil
	}
	delete(h.peers, name)
}

// snapshot renders the table for GET /api/stats.
func (h *healthTable) snapshot() []server.PeerHealthStats {
	h.mu.Lock()
	out := make([]server.PeerHealthStats, 0, len(h.peers))
	for _, p := range h.peers {
		out = append(out, server.PeerHealthStats{
			Peer:                p.name,
			State:               p.state.String(),
			ConsecutiveFailures: p.consecFails,
			LastError:           p.lastErr,
			BreakerOpens:        p.opens,
			BreakerCloses:       p.closes,
			HeartbeatRTTMicros:  p.hbRTT.Microseconds(),
		})
	}
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}
