package core

import (
	"context"
	"sort"

	"discover/internal/auth"
	"discover/internal/gossip"
	"discover/internal/orb"
	"discover/internal/server"
	"discover/internal/wire"
)

// GossipKey is the servant key of the epidemic-directory endpoint
// (Config.GossipEnabled).
const GossipKey = "Gossip"

// initGossip builds the gossip node and wires it into the substrate:
// transport over the ORB, snapshots from the local server, applied deltas
// into the directory cache and the control-event stream, and membership
// transitions exchanged with the failure detector (DESIGN §4k).
func (s *Substrate) initGossip() {
	s.gossip = gossip.NewNode(gossip.Options{
		Self:         s.srv.Name(),
		Addr:         s.orb.Addr(),
		Period:       s.cfg.GossipPeriod,
		Fanout:       s.cfg.GossipFanout,
		Rand:         s.cfg.GossipRand,
		Timeout:      s.cfg.GossipTimeout,
		Transport:    gossipTransport{s: s},
		Snapshot:     s.gossipSnapshot,
		OnApply:      s.gossipApplied,
		OnMemberUp:   s.gossipMemberUp,
		OnMemberDown: s.gossipMemberDown,
		Logf:         s.cfg.Logf,
	})
}

// Gossip exposes the node (nil when Config.GossipEnabled is false).
func (s *Substrate) Gossip() *gossip.Node { return s.gossip }

// GossipNow drives one synchronous gossip round — the experiment
// harness's lockstep driver, mirroring CheckPeersNow.
func (s *Substrate) GossipNow() {
	if s.gossip != nil {
		s.gossip.RunRound()
	}
}

// gossipTransport carries the two gossip RPCs over the substrate's ORB as
// bulk exchanges (the ORB compresses them). It deliberately skips the
// health gate — gossip is itself a failure detector and must be able to
// probe suspect and dead peers for recovery — but every outcome still
// feeds the breaker through observePeer.
type gossipTransport struct{ s *Substrate }

func (t gossipTransport) Exchange(ctx context.Context, name, addr string, req *gossip.ExchangeReq) (*gossip.ExchangeResp, error) {
	var resp gossip.ExchangeResp
	if err := t.invoke(ctx, name, addr, "exchange", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func (t gossipTransport) Sync(ctx context.Context, name, addr string, req *gossip.SyncReq) (*gossip.SyncResp, error) {
	var resp gossip.SyncResp
	if err := t.invoke(ctx, name, addr, "sync", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func (t gossipTransport) invoke(ctx context.Context, name, addr, method string, in, out any) error {
	err := t.s.orb.Invoke(orb.WithBulk(ctx), orb.ObjRef{Addr: addr, Key: GossipKey}, method, in, out)
	t.s.observePeer(peerInfo{name: name, addr: addr}, err)
	if err == nil || !orb.IsPeerFailure(err) {
		// Direct contact is as strong as a recovery probe. Since gossip
		// is the only invoker that skips the breaker gate, it may reach a
		// recovered peer long before the heartbeat prober does — close
		// the breaker through the probe path so listings stop marking the
		// peer Unavailable (reportSuccess alone never reopens a breaker;
		// probes decide recovery, and this round trip is one).
		if t.s.health.state(name) == PeerDown && t.s.health.beginProbe(name) {
			t.s.health.finishProbe(name, true, nil)
		}
	}
	return err
}

// gossipServant exposes the node to peers.
func (s *Substrate) gossipServant() orb.MethodMap {
	return orb.MethodMap{
		"exchange": orb.Handler(func(req gossip.ExchangeReq) (gossip.ExchangeResp, error) {
			return *s.gossip.HandleExchange(&req), nil
		}),
		"sync": orb.Handler(func(req gossip.SyncReq) (gossip.SyncResp, error) {
			return *s.gossip.HandleSync(&req), nil
		}),
	}
}

// gossipSnapshot collects the local directory to publish: every shared
// application with its full grant map (so replicas can serve per-user
// filtered listings without a wire hop) and the logged-in users.
func (s *Substrate) gossipSnapshot() ([]gossip.AppRecord, []string) {
	var apps []gossip.AppRecord
	for _, id := range s.srv.LocalAppIDs() {
		p, ok := s.srv.Proxy(id)
		if !ok {
			continue
		}
		reg := p.Registration()
		grants := make(map[string]string)
		if acl, ok := s.srv.Auth().ACL(id); ok {
			for _, e := range acl.Users() {
				if e.Priv != auth.None {
					grants[e.User] = e.Priv.String()
				}
			}
		}
		apps = append(apps, gossip.AppRecord{ID: id, Name: reg.Name, Kind: reg.Kind, Grants: grants})
	}
	return apps, s.srv.LoggedInUsers()
}

// gossipApplied reacts to applied remote deltas: cached listings for the
// origin predate the change (eager invalidation into the PR-4 cache), and
// once bootstrapped the substrate synthesizes the app lifecycle events the
// origin no longer broadcasts, so portal sessions keep seeing
// app-registered/app-closed exactly as before.
func (s *Substrate) gossipApplied(origin string, added, removed []gossip.Record) {
	s.dir.Invalidate(origin)
	if !s.gossip.Ready() {
		return // cold bootstrap sync: don't replay history as events
	}
	for _, r := range added {
		if r.Kind != gossip.KindApp {
			continue
		}
		ev := wire.NewEvent(origin, "app-registered", r.Key)
		ev.App = r.Key
		s.srv.HandleControlEvent(ev)
	}
	for _, r := range removed {
		if r.Kind != gossip.KindApp {
			continue
		}
		ev := wire.NewEvent(origin, "app-closed", r.Key)
		ev.App = r.Key
		s.srv.HandleControlEvent(ev)
	}
}

// gossipMemberUp handles a dead→alive membership transition: remember the
// peer (it may have been learned through gossip before the trader round)
// and invalidate its cached listings.
func (s *Substrate) gossipMemberUp(m gossip.Member) {
	s.mu.Lock()
	if !s.closed && m.Addr != "" {
		s.peers[m.Name] = peerInfo{name: m.Name, addr: m.Addr}
	}
	s.mu.Unlock()
	s.dir.Invalidate(m.Name)
}

// gossipMemberDown handles a transition to dead: listings cached from the
// peer go stale (the replica path marks its entries Unavailable anyway).
func (s *Substrate) gossipMemberDown(m gossip.Member) {
	s.dir.Invalidate(m.Name)
}

// gossipApps serves a listing from the local replica: zero ORB
// invocations. ok is false until the node bootstraps — callers fall back
// to the scatter-gather path. Entries from a dead member (or one behind an
// open breaker) are served marked Unavailable, matching the cache's
// degraded mode.
func (s *Substrate) gossipApps(user string) ([]server.AppInfo, bool) {
	n := s.gossip
	if n == nil || !n.Ready() {
		return nil, false
	}
	self := s.srv.Name()
	var out []server.AppInfo
	for _, od := range n.Directory() {
		if od.Origin == self {
			continue
		}
		unavailable := od.Status == gossip.StatusDead || s.health.allow(od.Origin) != nil
		for _, a := range od.Apps {
			priv, ok := a.Grants[user]
			if !ok {
				continue
			}
			out = append(out, server.AppInfo{
				ID: a.ID, Name: a.Name, Kind: a.Kind,
				Server: od.Origin, Privilege: priv, Unavailable: unavailable,
			})
		}
	}
	sortAppInfos(out)
	s.gossipServed.inc()
	return out, true
}

// gossipUsers serves the federation-wide user listing from the replica.
func (s *Substrate) gossipUsers() ([]string, bool) {
	n := s.gossip
	if n == nil || !n.Ready() {
		return nil, false
	}
	self := s.srv.Name()
	seen := make(map[string]bool)
	var out []string
	for _, od := range n.Directory() {
		if od.Origin == self || od.Status == gossip.StatusDead {
			continue
		}
		for _, u := range od.Users {
			if !seen[u] {
				seen[u] = true
				out = append(out, u)
			}
		}
	}
	sort.Strings(out)
	s.gossipServed.inc()
	return out, true
}

// GossipStats snapshots the node for GET /api/stats; ok is false when
// gossip is disabled. It implements server.GossipProvider.
func (s *Substrate) GossipStats() (server.GossipStats, bool) {
	if s.gossip == nil {
		return server.GossipStats{}, false
	}
	st := s.gossip.Stats()
	return server.GossipStats{
		Self:            st.Self,
		Ready:           st.Ready,
		Incarnation:     st.Incarnation,
		Members:         st.Members,
		Alive:           st.Alive,
		Suspect:         st.Suspect,
		Dead:            st.Dead,
		Origins:         st.Origins,
		Records:         st.Records,
		Tombstones:      st.Tombstones,
		Rounds:          st.Rounds,
		ExchangesOK:     st.ExchangesOK,
		ExchangesFailed: st.ExchangesFailed,
		Syncs:           st.Syncs,
		RecordsSent:     st.RecordsSent,
		RecordsApplied:  st.RecordsApplied,
		RumorsSent:      st.RumorsSent,
		TombstonesGCed:  st.TombstonesGCed,
		Refutations:     st.Refutations,
	}, true
}
