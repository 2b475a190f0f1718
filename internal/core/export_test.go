package core

import (
	"discover/internal/orb"
	"discover/internal/wire"
)

// What the federation tests in package core_test reach inside the
// substrate by. Those tests boot their domains through the one builder
// (experiments.NewFederation over internal/deploy), which imports this
// package, so they cannot live in it.

// Servant request types, for tests that invoke the Control and CorbaProxy
// servants directly.
type (
	DeliverReq      = deliverReq
	DeliverItem     = deliverItem
	DeliverBatchReq = deliverBatchReq
	CollabSyncReq   = collabSyncReq
	CollabSyncResp  = collabSyncResp
	CollabReq       = collabReq
)

var WaitFor = waitFor

// ProxyRefFor resolves appID's CorbaProxy the way the substrate does: the
// id names the host, and the peer table gives its address.
func (s *Substrate) ProxyRefFor(appID string) (orb.ObjRef, error) {
	p, err := s.peerFor(appID)
	if err != nil {
		return orb.ObjRef{}, err
	}
	return s.proxyRef(p, appID), nil
}

// RelaySender is a host-side push path to one peer.
type RelaySender = relaySender

// StartRelay starts a relay sender to a peer at addr, whether or not
// discovery offered it.
func (s *Substrate) StartRelay(peer, addr string) *RelaySender {
	return newRelaySender(s, peerInfo{name: peer, addr: addr})
}

func (r *relaySender) Deliver(appID string, m *wire.Message) { r.deliverFunc(appID)(m) }
func (r *relaySender) Failures() uint64                      { return r.failures.Load() }
func (r *relaySender) Close()                                { r.close() }
