package core

import (
	"context"
	"sync"
	"time"

	"discover/internal/orb"
	"discover/internal/server"
	"discover/internal/wire"
)

// heartbeatLoop drives the failure detector: a periodic synchronous check
// round over every known peer. The same round doubles as the recovery
// prober for peers whose breaker is open.
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
	peers := s.peerList()
	var wg sync.WaitGroup
	for _, p := range peers {
		wg.Add(1)
		go func(p peerInfo) {
			defer wg.Done()
			s.probePeer(p)
		}(p)
	}
	wg.Wait()
}

// probePeer performs one detector step for one peer: a heartbeat for a
// live peer, a recovery probe for a down one.
func (s *Substrate) probePeer(p peerInfo) {
	switch s.health.state(p.name) {
	case PeerProbing:
		return // a probe is already in flight
	case PeerDown:
		if !s.health.beginProbe(p.name) {
			return
		}
		rtt, err := s.pingPeer(p)
		alive := err == nil || !orb.IsPeerFailure(err)
		s.health.finishProbe(p.name, alive, err)
		if alive && err == nil {
			s.health.heartbeatOK(p.name, p.addr, rtt)
		}
	default:
		rtt, err := s.pingPeer(p)
		if err == nil || !orb.IsPeerFailure(err) {
			s.health.heartbeatOK(p.name, p.addr, rtt)
		} else {
			s.health.reportFailure(p.name, p.addr, err)
		}
	}
}

// pingPeer invokes the peer's two-way ping under the probe budget. Any
// reply — even an error a live servant raised — proves liveness.
func (s *Substrate) pingPeer(p peerInfo) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.ProbeTimeout)
	defer cancel()
	start := time.Now()
	var resp pingResp
	err := s.orb.Invoke(ctx, p.serverRef(), "ping", pingReq{}, &resp)
	return time.Since(start), err
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

// peerWentDown is the healthTable's onDown callback: degrade rather than
// drop. Pending relayed lock waits owned by the dead peer's clients fail
// immediately, local clients get peer-down and per-application
// availability events in their FIFO buffers, and the pooled connection is
// dropped so a later probe redials.
func (s *Substrate) peerWentDown(name, addr string) {
	s.cfg.Logf("core %s: peer %s declared down (breaker open)", s.srv.Name(), name)
	if addr != "" {
		s.orb.DropConn(addr)
	}
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

// peerRecovered is the healthTable's onRecovered callback: reassert this
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
