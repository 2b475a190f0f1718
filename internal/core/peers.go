package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"discover/internal/orb"
	"discover/internal/server"
	"discover/internal/wire"
)

// ErrPeerDown is the call gate's one refusal: the peer's breaker is open
// (or a recovery probe is deciding its fate) and the operation was not
// attempted. Callers should degrade (serve cached state, fail a relayed
// wait) rather than retry immediately. It carries an API error code
// (server.Coder) so the HTTP edge maps it to the uniform error envelope
// without this package appearing there.
var ErrPeerDown error = &breakerError{msg: "core: peer down (circuit open)", code: "peer_down"}

// breakerError is a sentinel (compared with errors.Is by identity) that
// also names its API error code.
type breakerError struct {
	msg  string
	code string
}

func (e *breakerError) Error() string     { return e.msg }
func (e *breakerError) ErrorCode() string { return e.code }

// Failure-detector constants. Config can override the heartbeat period
// and the dial budget, which also bounds every heartbeat and probe.
const (
	DefaultHeartbeatEvery = 2 * time.Second
	DefaultDialTimeout    = 2 * time.Second
	// DefaultDownAfter consecutive peer-failure outcomes open a peer's
	// gate.
	DefaultDownAfter = 3
)

// peerInfo is one peer as a caller sees it: where it lives, and whether
// its gate was open when the caller read the table.
type peerInfo struct {
	name string
	addr string
	down bool
}

func (p peerInfo) serverRef() orb.ObjRef  { return orb.ObjRef{Addr: p.addr, Key: ServerKey} }
func (p peerInfo) controlRef() orb.ObjRef { return orb.ObjRef{Addr: p.addr, Key: ControlKey} }

// gate is the per-peer call gate: nil when a call may go out, ErrPeerDown
// when the peer's breaker is open.
func (p peerInfo) gate() error {
	if p.down {
		return fmt.Errorf("core: peer %s: %w", p.name, ErrPeerDown)
	}
	return nil
}

// peer is one row of the peer table: the address the trader offered and
// the gate fed by call outcomes and heartbeats.
type peer struct {
	addr    string
	fails   int  // consecutive peer-failure outcomes
	missed  int  // consecutive discovery rounds without the peer's offer
	down    bool // gate open: calls fail fast with ErrPeerDown
	probing bool // a recovery probe is in flight (only while down)
	// recovered is non-nil while down; closed (and nilled) when a probe
	// brings the peer back or discovery drops it. Parked relay senders
	// select on it instead of hammering a dead peer.
	recovered chan struct{}
	lastErr   string
	hbRTT     time.Duration // last successful heartbeat round trip
	opens     uint64        // gate open transitions
	closes    uint64        // gate close (recovery) transitions
}

// peerTable is the substrate's one answer to "which peers exist and may
// we call them". Only discovery rounds (round) add or drop rows, from
// trader offers; call outcomes and heartbeats only move the gate of a row
// that exists. The onDown/onRecovered callbacks run after the lock is
// released, so they may call back into the substrate freely.
type peerTable struct {
	mu          sync.Mutex
	peers       map[string]*peer
	onDown      func(name, addr string)
	onRecovered func(name, addr string)
}

func newPeerTable() *peerTable {
	return &peerTable{peers: make(map[string]*peer)}
}

// get returns one peer with its gate, or false when it is not discovered.
func (t *peerTable) get(name string) (peerInfo, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.peers[name]
	if !ok {
		return peerInfo{}, false
	}
	return peerInfo{name: name, addr: p.addr, down: p.down}, true
}

// list snapshots every peer with its gate.
func (t *peerTable) list() []peerInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]peerInfo, 0, len(t.peers))
	for name, p := range t.peers {
		out = append(out, peerInfo{name: name, addr: p.addr, down: p.down})
	}
	return out
}

// round applies one discovery round's offers (name → address). Offered
// peers are added or refreshed. A peer missing from the round survives
// one miss while its gate is closed; a second miss, or a miss while
// down, drops it and wakes anything parked on it. It returns the peers
// new to the table and the names it dropped.
func (t *peerTable) round(offers map[string]string) (fresh []peerInfo, dropped []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for name, addr := range offers {
		p, ok := t.peers[name]
		if !ok {
			p = &peer{}
			t.peers[name] = p
			fresh = append(fresh, peerInfo{name: name, addr: addr})
		}
		p.addr, p.missed = addr, 0
	}
	for name, p := range t.peers {
		if _, ok := offers[name]; ok {
			continue
		}
		p.missed++
		if p.down || p.missed > 1 {
			if p.recovered != nil {
				close(p.recovered)
			}
			delete(t.peers, name)
			dropped = append(dropped, name)
		} else if p.lastErr == "" {
			p.lastErr = "trader offer missing"
		}
	}
	return fresh, dropped
}

// observe feeds one call outcome or heartbeat verdict to a peer's gate.
// Only communication failures and deadline expiry count against the
// peer (orb.IsPeerFailure); any reply, even a servant-raised error,
// proves it alive. rtt is a heartbeat's round trip, 0 for other calls.
// Reaching DefaultDownAfter consecutive failures opens the gate and
// fires onDown; a success never closes an open gate, because recovery
// goes through the probe so subscriptions are reasserted exactly once.
// Outcomes for peers not in the table are ignored.
func (t *peerTable) observe(name string, err error, rtt time.Duration) {
	t.mu.Lock()
	p, ok := t.peers[name]
	if !ok {
		t.mu.Unlock()
		return
	}
	opened := false
	if !orb.IsPeerFailure(err) {
		if rtt > 0 {
			p.hbRTT = rtt
		}
		p.fails, p.missed = 0, 0
		if !p.down {
			p.lastErr = ""
		}
	} else {
		p.lastErr = err.Error()
		if !p.down {
			p.fails++
			if p.fails >= DefaultDownAfter {
				p.down, opened = true, true
				p.opens++
				p.recovered = make(chan struct{})
			}
		}
	}
	addr := p.addr
	t.mu.Unlock()
	if opened && t.onDown != nil {
		t.onDown(name, addr)
	}
}

// beginProbe claims a peer's next detector step. It reports whether the
// step is a recovery probe (the peer is down) and false for ok when the
// peer is gone or another round's probe is already in flight.
func (t *peerTable) beginProbe(name string) (recovery, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, found := t.peers[name]
	if !found || p.probing {
		return false, false
	}
	if p.down {
		p.probing = true
	}
	return p.down, true
}

// finishProbe concludes a recovery probe: a live peer closes the gate,
// wakes parked senders and fires onRecovered; a dead one stays down for
// the next heartbeat round.
func (t *peerTable) finishProbe(name string, err error, rtt time.Duration) {
	t.mu.Lock()
	p, ok := t.peers[name]
	if !ok || !p.probing {
		t.mu.Unlock()
		return
	}
	p.probing = false
	if orb.IsPeerFailure(err) {
		p.lastErr = err.Error()
		t.mu.Unlock()
		return
	}
	p.down, p.fails, p.missed, p.lastErr = false, 0, 0, ""
	if err == nil {
		p.hbRTT = rtt
	}
	p.closes++
	close(p.recovered)
	p.recovered = nil
	addr := p.addr
	t.mu.Unlock()
	if t.onRecovered != nil {
		t.onRecovered(name, addr)
	}
}

// blockedCh returns the channel a sender should park on while the peer
// is down, or nil when it is usable or unknown.
func (t *peerTable) blockedCh(name string) chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p, ok := t.peers[name]; ok {
		return p.recovered
	}
	return nil
}

// snapshot renders the table for GET /api/v1/stats. The state label is
// derived from the gate fields.
func (t *peerTable) snapshot() []server.PeerHealthStats {
	t.mu.Lock()
	out := make([]server.PeerHealthStats, 0, len(t.peers))
	for name, p := range t.peers {
		state := "healthy"
		switch {
		case p.probing:
			state = "probing"
		case p.down:
			state = "down"
		case p.fails > 0 || p.missed > 0:
			state = "suspect"
		}
		out = append(out, server.PeerHealthStats{
			Peer:                name,
			State:               state,
			ConsecutiveFailures: p.fails,
			LastError:           p.lastErr,
			BreakerOpens:        p.opens,
			BreakerCloses:       p.closes,
			HeartbeatRTTMicros:  p.hbRTT.Microseconds(),
		})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// heartbeatLoop drives the failure detector: a periodic synchronous check
// round over every known peer. The same round doubles as the recovery
// prober for peers whose gate is open.
func (s *Substrate) heartbeatLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.HeartbeatEvery)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			s.CheckPeersNow()
		}
	}
}

// CheckPeersNow runs one heartbeat/probe round over every known peer and
// returns when all outcomes are recorded. Exported so tests and the chaos
// experiment can drive the detector deterministically instead of sleeping
// through heartbeat periods.
func (s *Substrate) CheckPeersNow() {
	var wg sync.WaitGroup
	for _, p := range s.peers.list() {
		wg.Add(1)
		go func(p peerInfo) {
			defer wg.Done()
			s.probe(context.Background(), p)
		}(p)
	}
	wg.Wait()
}

// probe performs one detector step for one peer: a heartbeat for a live
// peer, a recovery probe for a down one. Either is one two-way ping under
// the dial budget; any reply, even an error a live servant raised, proves
// liveness.
func (s *Substrate) probe(ctx context.Context, p peerInfo) {
	recovery, ok := s.peers.beginProbe(p.name)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(ctx, s.cfg.DialTimeout)
	defer cancel()
	start := time.Now()
	var resp pingResp
	err := s.orb.Invoke(ctx, p.serverRef(), "ping", pingReq{}, &resp)
	if recovery {
		s.peers.finishProbe(p.name, err, time.Since(start))
	} else {
		s.peers.observe(p.name, err, time.Since(start))
	}
}

// appsHostedAt lists the subscribed applications hosted at one peer — the
// applications whose availability that peer's death changes here.
func (s *Substrate) appsHostedAt(peer string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for appID := range s.subs {
		if server.ServerOfApp(appID) == peer {
			out = append(out, appID)
		}
	}
	return out
}

// peerWentDown is the peer table's onDown callback: degrade rather than
// drop. Pending relayed lock waits owned by the dead peer's clients fail
// immediately, local clients get peer-down and per-application
// availability events in their FIFO buffers, and the pooled connection is
// dropped so a later probe redials.
func (s *Substrate) peerWentDown(name, addr string) {
	s.cfg.Logf("core %s: peer %s declared down (breaker open)", s.srv.Name(), name)
	s.orb.DropConn(addr)
	if apps := s.srv.PeerServerDown(name); len(apps) > 0 {
		s.cfg.Logf("core %s: released lock state of %s's clients for %v", s.srv.Name(), name, apps)
	}
	ev := wire.NewEvent(s.srv.Name(), "peer-down", name)
	s.srv.HandleControlEvent(ev)
	for _, appID := range s.appsHostedAt(name) {
		aev := wire.NewEvent(s.srv.Name(), "app-unavailable", appID)
		aev.App = appID
		s.srv.HandleControlEvent(aev)
	}
}

// peerRecovered is the peer table's onRecovered callback: reassert this
// server's push subscriptions at the recovered host (its relay table may
// be gone if it restarted) and tell local clients the peer is back.
func (s *Substrate) peerRecovered(name, addr string) {
	s.cfg.Logf("core %s: peer %s recovered (breaker closed)", s.srv.Name(), name)
	// Anything the directory cached for this peer predates the outage
	// (the peer may even have restarted with different applications):
	// drop its freshness so the next listing refetches, while the data
	// keeps backing a degraded serve if the recovery proves short-lived.
	s.dir.invalidatePeer(name, false)
	s.reassertSubscriptions(name)
	ev := wire.NewEvent(s.srv.Name(), "peer-recovered", name)
	s.srv.HandleControlEvent(ev)
	for _, appID := range s.appsHostedAt(name) {
		aev := wire.NewEvent(s.srv.Name(), "app-available", appID)
		aev.App = appID
		s.srv.HandleControlEvent(aev)
	}
}
