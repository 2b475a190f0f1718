package core

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"discover/internal/orb"
	"discover/internal/policy"
	"discover/internal/server"
	"discover/internal/telemetry"
	"discover/internal/wire"
)

// rpcTimeout is the per-invocation budget of every remote operation.
const rpcTimeout = 10 * time.Second

// Config wires a Substrate to its server and discovery services.
type Config struct {
	Server        *server.Server
	ORB           *orb.ORB   // must already be listening
	TraderRef     orb.ObjRef // the shared trader service
	Props         map[string]string
	OfferTTL      time.Duration // trader lease (default 60s)
	RelayBatch    int           // max messages per push invocation (default 32; 1 disables batching)
	DiscoverEvery time.Duration // peer re-discovery period (default 5s)
	Logf          func(format string, args ...any)

	// Failure detection (see peers.go). DefaultDownAfter consecutive
	// peer-failure outcomes, from regular traffic or from the heartbeat,
	// open a peer's gate; operations against it then fail fast with
	// ErrPeerDown until a recovery probe succeeds.
	DialTimeout    time.Duration // TCP connect and heartbeat/probe budget, below the 10s RPC budget (default 2s)
	HeartbeatEvery time.Duration // control-channel heartbeat period (default 2s)
}

// Substrate is the per-server middleware endpoint. Create it with New,
// then Start it; it registers the servants, exports the trader offer and
// begins discovery.
type Substrate struct {
	cfg    Config
	srv    *server.Server
	orb    *orb.ORB
	trader *orb.TraderClient
	acct   *policy.Accountant

	peers *peerTable // discovered peers and their call gates
	dir   *dirCache  // event-coherent directory cache (listing path)

	fanWorkers   atomic.Int64  // scatter-gather concurrency bound (SetFanoutWorkers)
	fanRounds    atomic.Uint64 // scatter-gather rounds issued
	fanCalls     atomic.Uint64 // per-peer calls issued across all rounds
	fanoutServed dirCounter    // federated listings answered

	// Collaboration-log anti-entropy counters (DESIGN §4l).
	collabSyncs   *telemetry.Counter // exchanges completed against a host
	collabSyncOps *telemetry.Counter // ops transferred by those exchanges

	mu      sync.Mutex
	relays  map[string]*relaySender // by peer name (host side)
	subs    map[string]bool         // app ids subscribed (subscriber side)
	offerID string
	closed  bool

	wg   sync.WaitGroup
	stop chan struct{}
}

// New creates a substrate. Call Start to go live.
func New(cfg Config) (*Substrate, error) {
	if cfg.Server == nil || cfg.ORB == nil {
		return nil, fmt.Errorf("core: config needs Server and ORB")
	}
	if cfg.ORB.Addr() == "" {
		return nil, fmt.Errorf("core: ORB must be listening before the substrate starts")
	}
	if cfg.OfferTTL <= 0 {
		cfg.OfferTTL = 60 * time.Second
	}
	if cfg.RelayBatch <= 0 {
		cfg.RelayBatch = DefaultRelayBatch
	}
	if cfg.DiscoverEvery <= 0 {
		cfg.DiscoverEvery = 5 * time.Second
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = DefaultHeartbeatEvery
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	cfg.ORB.SetDialTimeout(cfg.DialTimeout)
	s := &Substrate{
		cfg:    cfg,
		srv:    cfg.Server,
		orb:    cfg.ORB,
		acct:   policy.NewAccountant(),
		peers:  newPeerTable(),
		dir:    newDirCache(cfg.Server.Name(), DefaultDirCacheTTL),
		relays: make(map[string]*relaySender),
		subs:   make(map[string]bool),
		stop:   make(chan struct{}),
	}
	s.fanWorkers.Store(DefaultFanoutWorkers)
	s.fanoutServed.metric = telemetry.GetCounter("discover_listings_fanout_served_total", "server", cfg.Server.Name())
	s.collabSyncs = telemetry.GetCounter("discover_collab_syncs_total", "server", cfg.Server.Name())
	s.collabSyncOps = telemetry.GetCounter("discover_collab_sync_ops_total", "server", cfg.Server.Name())
	s.peers.onDown = s.peerWentDown
	s.peers.onRecovered = s.peerRecovered
	if !cfg.TraderRef.IsZero() {
		s.trader = orb.NewTraderClient(cfg.ORB, cfg.TraderRef)
	}
	return s, nil
}

// Start registers servants, exports the trader offer, attaches to the
// server as its Federation, and begins discovery and lease refresh.
func (s *Substrate) Start() error {
	s.registerServants()
	s.srv.SetFederation(s)

	if s.trader != nil {
		props := map[string]string{
			"name": s.srv.Name(),
			"addr": s.orb.Addr(),
		}
		for k, v := range s.cfg.Props {
			props[k] = v
		}
		ctx, cancel := s.rpcCtx()
		defer cancel()
		id, err := s.trader.Export(ctx, orb.DiscoverServiceType,
			orb.ObjRef{Addr: s.orb.Addr(), Key: ServerKey}, props, s.cfg.OfferTTL)
		if err != nil {
			return fmt.Errorf("core: exporting trader offer: %w", err)
		}
		s.mu.Lock()
		s.offerID = id
		s.mu.Unlock()

		s.wg.Add(1)
		go s.maintenanceLoop()
		if err := s.DiscoverPeers(); err != nil {
			s.cfg.Logf("core %s: initial discovery: %v", s.srv.Name(), err)
		}
	}
	s.wg.Add(1)
	go s.heartbeatLoop()
	return nil
}

// Close withdraws the trader offer and stops background work.
func (s *Substrate) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	offerID := s.offerID
	for _, r := range s.relays {
		r.close()
	}
	s.mu.Unlock()
	close(s.stop)
	s.wg.Wait()
	if s.trader != nil && offerID != "" {
		ctx, cancel := s.rpcCtx()
		defer cancel()
		s.trader.Withdraw(ctx, offerID)
	}
}

func (s *Substrate) rpcCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), rpcTimeout)
}

// boundCtx derives the per-invocation budget from the caller's context —
// so a client request's deadline (and its telemetry trace) propagates
// into the RPC — falling back to a detached context for background work.
func (s *Substrate) boundCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithTimeout(ctx, rpcTimeout)
}

// goTracked runs fn on a goroutine tracked by the substrate's WaitGroup,
// unless the substrate is closed. The closed check and the Add happen
// under the same lock Close uses before Wait, so Add can never race with
// Wait — the servant callbacks (application lifecycle events arriving
// during teardown) would otherwise trigger exactly that.
func (s *Substrate) goTracked(fn func()) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		fn()
	}()
	return true
}

// maintenanceLoop refreshes the trader lease and re-discovers peers.
func (s *Substrate) maintenanceLoop() {
	defer s.wg.Done()
	refresh := time.NewTicker(s.cfg.OfferTTL / 2)
	discover := time.NewTicker(s.cfg.DiscoverEvery)
	defer refresh.Stop()
	defer discover.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-refresh.C:
			s.mu.Lock()
			id := s.offerID
			s.mu.Unlock()
			ctx, cancel := s.rpcCtx()
			if err := s.trader.Refresh(ctx, id, s.cfg.OfferTTL); err != nil {
				s.cfg.Logf("core %s: offer refresh: %v", s.srv.Name(), err)
			}
			cancel()
		case <-discover.C:
			if err := s.DiscoverPeers(); err != nil {
				s.cfg.Logf("core %s: discovery: %v", s.srv.Name(), err)
			}
			s.reassertSubscriptions("")
		}
	}
}

// reassertSubscriptions re-sends push subscriptions so that a host server
// that restarted (losing its relay table) resumes pushing to us. The
// subscribe operation is idempotent at the host. A non-empty peer limits
// the pass to applications hosted there (recovery reassertion).
func (s *Substrate) reassertSubscriptions(peer string) {
	s.mu.Lock()
	apps := make([]string, 0, len(s.subs))
	for appID := range s.subs {
		if peer == "" || server.ServerOfApp(appID) == peer {
			apps = append(apps, appID)
		}
	}
	s.mu.Unlock()
	for _, appID := range apps {
		p, err := s.peerFor(appID)
		if err != nil {
			continue // host currently unknown; discovery will bring it back
		}
		err = s.invokePeer(nil, p, p.serverRef(), "subscribe", subscribeReq{
			App: appID, Peer: s.srv.Name(), PeerAddr: s.orb.Addr(),
		}, nil)
		if err != nil {
			s.cfg.Logf("core %s: re-subscribe %s at %s: %v", s.srv.Name(), appID, p.name, err)
			continue
		}
		// Anti-entropy closes whatever gap opened while the relay was
		// down: pull what the host saw, push what only we saw.
		if err := s.SyncCollabApp(nil, appID); err != nil {
			s.cfg.Logf("core %s: collab resync %s: %v", s.srv.Name(), appID, err)
		}
	}
}

// DiscoverPeers queries the trader for live DISCOVER offers and applies
// them to the peer table. The offer lease means a dead server disappears
// once its lease lapses — availability "determined at runtime". A live
// peer whose offer is momentarily missing (a late lease refresh losing
// the race with our query) is kept for one round, marked suspect, rather
// than silently dropped; a down peer is dropped on its first miss.
func (s *Substrate) DiscoverPeers() error {
	if s.trader == nil {
		return nil
	}
	ctx, cancel := s.rpcCtx()
	defer cancel()
	offers, err := s.trader.Query(ctx, orb.DiscoverServiceType,
		fmt.Sprintf("name != '%s'", s.srv.Name()))
	if err != nil {
		return err
	}
	next := make(map[string]string, len(offers))
	for _, o := range offers {
		if name, addr := o.Props["name"], o.Props["addr"]; name != "" && addr != "" {
			next[name] = addr
		}
	}
	fresh, dropped := s.peers.round(next)
	for _, name := range dropped {
		s.dir.dropPeer(name)
	}
	// Warm up newly discovered peers with one concurrent heartbeat round:
	// it primes the pooled connections and seeds their gates, so the first
	// federation-wide listing doesn't pay N dials.
	fanOut(s, nil, "discoverPing", fresh, func(c context.Context, p peerInfo) (struct{}, error) {
		s.probe(c, p)
		return struct{}{}, nil
	})
	return nil
}

// Accounting exposes the per-peer resource accountant: set policies with
// SetPolicy and inspect consumption with Usage.
func (s *Substrate) Accounting() *policy.Accountant { return s.acct }

// RelayStats snapshots the host-side push-relay counters, one row per
// subscribed peer (drops, batches, invocations). It implements half of
// server.StatsProvider so GET /api/stats can surface relay shedding next
// to client-FIFO drops.
func (s *Substrate) RelayStats() []server.RelayStats {
	s.mu.Lock()
	senders := make([]*relaySender, 0, len(s.relays))
	for _, r := range s.relays {
		senders = append(senders, r)
	}
	s.mu.Unlock()
	out := make([]server.RelayStats, 0, len(senders))
	for _, r := range senders {
		out = append(out, r.stats())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// WireStats snapshots the substrate ORB's cumulative wire-level counters
// (invocations vs write syscalls vs bytes), the other half of
// server.StatsProvider.
func (s *Substrate) WireStats() server.WireStats {
	st := s.orb.Stats()
	return server.WireStats{
		Invocations: st.Invocations,
		Oneways:     st.Oneways,
		Writes:      st.Writes,
		BytesOut:    st.BytesOut,
		Replies:     st.Replies,
		Bytes:       st.Bytes,
		InternDefs:  st.InternDefs,
		InternHits:  st.InternHits,
		Compressed:  st.Compressed,
	}
}

// Peers lists discovered peer server names.
func (s *Substrate) Peers() []string {
	peers := s.peers.list()
	out := make([]string, 0, len(peers))
	for _, p := range peers {
		out = append(out, p.name)
	}
	return out
}

// peerFor maps an application id to its host server's peer entry.
func (s *Substrate) peerFor(appID string) (peerInfo, error) {
	host := server.ServerOfApp(appID)
	p, ok := s.peers.get(host)
	if !ok {
		return peerInfo{}, fmt.Errorf("core: no known peer %q for application %s", host, appID)
	}
	return p, nil
}

func (s *Substrate) proxyRef(p peerInfo, appID string) orb.ObjRef {
	return orb.ObjRef{Addr: p.addr, Key: ProxyKey(appID)}
}

// invokePeer is the gated invocation path every two-way remote operation
// goes through: fail fast if p's gate is open, invoke, and feed the
// outcome back to the gate. p carries the gate as read with its address.
// The caller's context flows into the invocation, carrying its deadline
// and telemetry trace; pass nil for detached background work.
func (s *Substrate) invokePeer(ctx context.Context, p peerInfo, ref orb.ObjRef, method string, in, out any) error {
	if err := p.gate(); err != nil {
		return err
	}
	ictx, cancel := s.boundCtx(ctx)
	defer cancel()
	err := s.orb.Invoke(ictx, ref, method, in, out)
	s.peers.observe(p.name, err, 0)
	return err
}

// PeerHealth snapshots the peer table for GET /api/v1/stats; it
// implements server.HealthProvider.
func (s *Substrate) PeerHealth() []server.PeerHealthStats {
	return s.peers.snapshot()
}

// DirectoryStats snapshots the directory cache and scatter-gather
// counters for GET /api/stats; it implements server.DirectoryProvider.
func (s *Substrate) DirectoryStats() server.DirectoryStats {
	st := s.dir.stats()
	st.FanoutWorkers = int(s.fanWorkers.Load())
	st.FanoutRounds = s.fanRounds.Load()
	st.FanoutCalls = s.fanCalls.Load()
	st.FanoutServed = s.fanoutServed.value()
	return st
}

// SetDirCacheTTL adjusts the directory cache freshness window at runtime
// (DefaultDirCacheTTL until set; 0 restores the default, < 0 disables
// caching).
func (s *Substrate) SetDirCacheTTL(d time.Duration) { s.dir.setTTL(d) }

// ---------------------------------------------------------------------------
// server.Federation implementation.
// ---------------------------------------------------------------------------

// RemoteApps lists the applications this user may access across the
// federation, from each peer's level-1 listApplications. The directory
// cache answers first — fresh entries (and stale ones, served while one
// flight revalidates in the background) cost zero ORB invocations, and
// peers behind an open breaker degrade gracefully — and only the cache
// misses go to the wire, scatter-gathered concurrently so a cold listing
// costs ~max(per-peer RTT), not the sum.
func (s *Substrate) RemoteApps(ctx context.Context, user string) []server.AppInfo {
	s.fanoutServed.inc()
	peers := s.peers.list() // the one peer-table snapshot for the whole round
	if len(peers) == 0 {
		return nil
	}
	var out []server.AppInfo
	type appJob struct {
		p    peerInfo
		plan dirPlan
	}
	var jobs []appJob
	for _, p := range peers {
		plan := s.dir.plan(p.name, user, p.down)
		switch plan.state {
		case dirFresh, dirUnavailable:
			out = append(out, plan.apps...)
		case dirStale:
			out = append(out, plan.apps...)
			if plan.lead {
				s.revalidateApps(p, user)
			}
		default: // dirFetch, dirJoin: pay the wire (or wait on who is)
			jobs = append(jobs, appJob{p: p, plan: plan})
		}
	}
	if len(jobs) > 0 {
		results := fanOut(s, ctx, "listApplications", jobs,
			func(c context.Context, j appJob) ([]server.AppInfo, error) {
				return s.peerApps(c, j.p, user, j.plan), nil
			})
		for _, r := range results {
			out = append(out, r.val...)
		}
	}
	sortAppInfos(out)
	return out
}

// peerApps resolves one peer's contribution to a listing round on the
// miss path: the single-flight leader fetches and publishes, followers
// wait for that flight. Either way an unreachable peer degrades to the
// unavailable-marked cached listing.
func (s *Substrate) peerApps(ctx context.Context, p peerInfo, user string, plan dirPlan) []server.AppInfo {
	var apps []server.AppInfo
	var err error
	if plan.state == dirJoin {
		apps, err = s.awaitApps(ctx, p, user, plan.flight)
	} else {
		apps, err = s.fetchApps(ctx, p, user)
	}
	switch {
	case err == nil:
		return apps
	case orb.IsPeerFailure(err) || errors.Is(err, ErrPeerDown) || errors.Is(err, context.Canceled):
		return apps // the unavailable-marked fallback (nil when never listed)
	default:
		s.cfg.Logf("core %s: listApplications at %s: %v", s.srv.Name(), p.name, err)
		return nil
	}
}

// fetchApps is the leader side of a single-flight listing fetch: one RPC
// whose outcome is published to the cache, releasing any followers. On
// failure it returns the unavailable-marked fallback alongside the error.
func (s *Substrate) fetchApps(ctx context.Context, p peerInfo, user string) ([]server.AppInfo, error) {
	var resp listAppsResp
	// Directory listings are bulk exchanges: on a v2 connection the reply
	// (potentially hundreds of AppInfo entries) may compress and stream.
	err := s.invokePeer(orb.WithBulk(ctx), p, p.serverRef(), "listApplications", listAppsReq{User: user}, &resp)
	s.dir.complete(p.name, user, resp.Apps, err)
	if err != nil {
		apps, _ := s.dir.resolve(p.name, user)
		return apps, err
	}
	return resp.Apps, nil
}

// awaitApps is the follower side: wait for the in-flight fetch (bounded
// like an RPC of our own) and read its outcome from the cache.
func (s *Substrate) awaitApps(ctx context.Context, p peerInfo, user string, flight <-chan struct{}) ([]server.AppInfo, error) {
	wctx, cancel := s.boundCtx(ctx)
	defer cancel()
	select {
	case <-flight:
		return s.dir.resolve(p.name, user)
	case <-wctx.Done():
		return nil, wctx.Err()
	}
}

// revalidateApps refreshes one stale cache entry in the background; the
// caller already holds the flight leadership. If the substrate is closing
// the flight is completed immediately so no follower waits on it.
func (s *Substrate) revalidateApps(p peerInfo, user string) {
	started := s.goTracked(func() {
		ctx, cancel := s.rpcCtx()
		defer cancel()
		s.fetchApps(ctx, p, user)
	})
	if !started {
		s.dir.complete(p.name, user, nil, fmt.Errorf("core: substrate closed"))
	}
}

// RemoteUsers lists users logged in at a named peer; with an empty peer
// name it merges every peer's logins by scatter-gathering every reachable
// peer (best effort: unreachable peers contribute nothing).
func (s *Substrate) RemoteUsers(ctx context.Context, peerName string) ([]string, error) {
	listUsers := func(c context.Context, p peerInfo) ([]string, error) {
		var resp listUsersResp
		err := s.invokePeer(orb.WithBulk(c), p, p.serverRef(), "listUsers", listUsersReq{}, &resp)
		return resp.Users, err
	}
	if peerName == "" {
		s.fanoutServed.inc()
		results := fanOut(s, ctx, "listUsers", s.peers.list(), listUsers)
		seen := make(map[string]bool)
		var out []string
		for _, r := range results {
			if r.err != nil {
				continue
			}
			for _, u := range r.val {
				if !seen[u] {
					seen[u] = true
					out = append(out, u)
				}
			}
		}
		sort.Strings(out)
		return out, nil
	}
	p, ok := s.peers.get(peerName)
	if !ok {
		return nil, fmt.Errorf("core: unknown peer %q", peerName)
	}
	return listUsers(ctx, p)
}

// RemotePrivilege performs level-two authorization at the host server.
func (s *Substrate) RemotePrivilege(ctx context.Context, user, appID string) (string, error) {
	p, err := s.peerFor(appID)
	if err != nil {
		return "", err
	}
	var resp privilegeResp
	if err := s.invokePeer(ctx, p, p.serverRef(), "privilege", privilegeReq{User: user, App: appID}, &resp); err != nil {
		return "", err
	}
	return resp.Privilege, nil
}

// ForwardCommand relays a client command to the application's host.
func (s *Substrate) ForwardCommand(ctx context.Context, appID string, cmd *wire.Message) error {
	p, err := s.peerFor(appID)
	if err != nil {
		return err
	}
	return s.invokePeer(ctx, p, s.proxyRef(p, appID), "command", commandReq{Cmd: cmd}, nil)
}

// RemoteLock relays a lock request; lock state lives at the host only.
func (s *Substrate) RemoteLock(ctx context.Context, appID, owner string, acquire bool) (bool, string, error) {
	p, err := s.peerFor(appID)
	if err != nil {
		return false, "", err
	}
	var resp lockResp
	if err := s.invokePeer(ctx, p, s.proxyRef(p, appID), "lock",
		lockReq{Owner: owner, Acquire: acquire}, &resp); err != nil {
		return false, "", err
	}
	return resp.Granted, resp.Holder, nil
}

// ForwardCollab relays a collaboration message for group-wide fan-out at
// the host server; ctx carries the originating request's deadline and
// telemetry trace.
func (s *Substrate) ForwardCollab(ctx context.Context, appID string, m *wire.Message) error {
	p, err := s.peerFor(appID)
	if err != nil {
		return err
	}
	return s.invokePeer(ctx, p, s.proxyRef(p, appID), "collab",
		collabReq{Msg: m, From: s.srv.Name()}, nil)
}

// SyncCollabApp runs one anti-entropy exchange for the application's
// replicated collaboration log against its host server: pull every op we
// are missing (the host splices evicted history from its WAL), then push
// any op only we hold — after a partition heals, one exchange per side
// makes the logs byte-identical regardless of what the relays dropped.
func (s *Substrate) SyncCollabApp(ctx context.Context, appID string) error {
	p, err := s.peerFor(appID)
	if err != nil {
		return err
	}
	var resp collabSyncResp
	err = s.invokePeer(ctx, p, s.proxyRef(p, appID), "collabSync",
		collabSyncReq{From: s.srv.Name(), VV: s.srv.CollabVV(appID)}, &resp)
	if err != nil {
		return err
	}
	applied := s.srv.CollabApply(appID, resp.Ops, resp.VV, p.name)
	s.collabSyncs.Inc()
	s.collabSyncOps.Add(uint64(applied))
	if ops, upTo := s.srv.CollabDeltas(appID, resp.VV); len(ops) > 0 {
		if err := s.invokePeer(ctx, p, s.proxyRef(p, appID), "collabPush",
			collabPushReq{From: s.srv.Name(), Ops: ops, VV: upTo}, nil); err != nil {
			return err
		}
		s.collabSyncOps.Add(uint64(len(ops)))
	}
	return nil
}

// CollabSyncNow synchronously runs one anti-entropy exchange for every
// subscribed application, in deterministic order. Convergence tests
// (experiment C1) drive replication in lockstep with it, the way
// CheckPeersNow drives the failure detector.
func (s *Substrate) CollabSyncNow() {
	s.mu.Lock()
	apps := make([]string, 0, len(s.subs))
	for appID := range s.subs {
		apps = append(apps, appID)
	}
	s.mu.Unlock()
	sort.Strings(apps)
	for _, appID := range apps {
		if err := s.SyncCollabApp(nil, appID); err != nil {
			s.cfg.Logf("core %s: collab sync %s: %v", s.srv.Name(), appID, err)
		}
	}
}

// Subscribe arranges for the application's group traffic to reach this
// server: the host pushes it over a relay to our Control servant.
// Idempotent.
func (s *Substrate) Subscribe(ctx context.Context, appID string) error {
	p, err := s.peerFor(appID)
	if err != nil {
		return err
	}
	s.mu.Lock()
	subscribed := s.subs[appID]
	s.mu.Unlock()
	if subscribed {
		return nil
	}
	err = s.invokePeer(ctx, p, p.serverRef(), "subscribe", subscribeReq{
		App: appID, Peer: s.srv.Name(), PeerAddr: s.orb.Addr(),
	}, nil)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.subs[appID] = true
	s.mu.Unlock()
	// First subscription: pull the group's replicated log so latecomer
	// clients replay history locally, with no per-client catch-up
	// invocations against the host.
	if err := s.SyncCollabApp(ctx, appID); err != nil {
		s.cfg.Logf("core %s: collab sync %s: %v", s.srv.Name(), appID, err)
	}
	return nil
}

// ExportApp installs a local application's CorbaProxy servant. The
// server calls it before the application becomes listable, so a peer
// that lists it can reach it at proxyRef.
func (s *Substrate) ExportApp(appID string) {
	s.orb.Register(ProxyKey(appID), s.proxyServant(appID))
}

// WithdrawApp removes a closed local application's CorbaProxy servant.
func (s *Substrate) WithdrawApp(appID string) {
	s.orb.Unregister(ProxyKey(appID))
}

// NotifyEvent disseminates a control-channel event: it fans the event
// out to every peer as a oneway.
func (s *Substrate) NotifyEvent(ev *wire.Message) {
	for _, p := range s.peers.list() {
		if p.down {
			continue // gate open: don't queue events for a dead peer
		}
		s.goTracked(func() {
			ctx, cancel := s.rpcCtx()
			defer cancel()
			err := s.orb.InvokeOneway(ctx, p.controlRef(), "event",
				eventReq{Ev: ev, From: s.srv.Name()})
			if err != nil {
				s.cfg.Logf("core %s: event to %s: %v", s.srv.Name(), p.name, err)
				// A oneway success proves nothing (no reply), but a failed
				// write is evidence for the gate.
				if orb.IsPeerFailure(err) {
					s.peers.observe(p.name, err, 0)
				}
			}
		})
	}
}

// acceptSubscription (host side) joins a relay member for the subscribing
// peer into the application's collaboration group.
func (s *Substrate) acceptSubscription(r subscribeReq) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("core: substrate closed")
	}
	sender, ok := s.relays[r.Peer]
	if ok && r.PeerAddr != "" && sender.peer.addr != r.PeerAddr {
		// The peer restarted at a new address: retire the stale sender so
		// pushes don't keep aiming at the dead endpoint.
		sender.close()
		ok = false
	}
	if !ok {
		sender = newRelaySender(s, peerInfo{name: r.Peer, addr: r.PeerAddr})
		s.relays[r.Peer] = sender
	}
	s.mu.Unlock()
	return s.srv.SubscribeRelay(r.App, r.Peer, sender.deliverFunc(r.App))
}
