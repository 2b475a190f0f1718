// Package server implements the DISCOVER interaction and collaboration
// server: a commodity web server (net/http) extended with the paper's
// "servlet" handlers —
//
//	Master handler        — client gateway, sessions, client-ids
//	Command handler       — routes view/steering requests to proxies
//	Collaboration handler — groups, broadcast, chat, whiteboard
//	Security handler      — two-level authentication and ACLs
//	Daemon servlet        — listens for application connections, creates
//	                        an ApplicationProxy per application, buffers
//	                        requests while the application computes
//	Session archival      — interaction and application logs
//
// Federation with peer servers (the middleware substrate, internal/core)
// is attached through the Federation interface, keeping this package
// independent of the ORB: a standalone server works with no federation at
// all, which is also the centralized baseline for the experiments.
package server

import (
	"context"
	"fmt"
	"log"
	"strings"
	"sync"
	"time"

	"discover/internal/appproto"
	"discover/internal/archive"
	"discover/internal/auth"
	"discover/internal/collab"
	"discover/internal/lockmgr"
	"discover/internal/recorddb"
	"discover/internal/session"
	"discover/internal/storage"
	"discover/internal/telemetry"
	"discover/internal/wire"
)

// AppInfo is the client-visible description of one application, local or
// remote.
type AppInfo struct {
	ID        string `json:"id"`
	Name      string `json:"name"`
	Kind      string `json:"kind"`
	Server    string `json:"server"`
	Privilege string `json:"privilege"` // the asking user's privilege
	// Unavailable marks a remote application whose host server is
	// currently unreachable: still listed (from the substrate's cache)
	// but not usable until the peer recovers.
	Unavailable bool `json:"unavailable,omitempty"`
}

// ErrPeerUnavailable reports that an operation could not complete because
// the remote application's host server is unreachable. It carries the
// peer_down API code so the HTTP edge maps it to 503 without this file
// importing the substrate.
var ErrPeerUnavailable error = &codedError{
	msg: "server: peer server unreachable", code: CodePeerDown,
}

// Federation is the substrate's surface as seen by a server. A nil
// Federation means a standalone (centralized) deployment.
//
// Methods on the client request path take the request context: it bounds
// the remote invocation (the substrate derives its RPC deadline from it)
// and carries the telemetry trace when the request was sampled at the
// HTTP edge. Background paths (application export, events) run detached
// from any client request and take no context.
type Federation interface {
	// RemoteApps lists applications at peer servers the user may access.
	RemoteApps(ctx context.Context, user string) []AppInfo
	// RemotePrivilege performs level-two authorization at the app's host
	// server and returns the privilege name.
	RemotePrivilege(ctx context.Context, user, appID string) (string, error)
	// ForwardCommand relays a client command to the app's host server.
	ForwardCommand(ctx context.Context, appID string, cmd *wire.Message) error
	// RemoteLock relays a lock request to the app's host server.
	RemoteLock(ctx context.Context, appID, owner string, acquire bool) (granted bool, holder string, err error)
	// ForwardCollab relays a collaboration message (chat, whiteboard,
	// view share, membership op) to the app's host server for group-wide
	// fan-out. It returns once the host has applied the message.
	ForwardCollab(ctx context.Context, appID string, m *wire.Message) error
	// Subscribe asks the app's host server to relay the app's group
	// traffic to this server (idempotent).
	Subscribe(ctx context.Context, appID string) error
	// ExportApp makes a newly registered local application reachable by
	// peer servers; WithdrawApp reverses it when the application closes.
	ExportApp(appID string)
	WithdrawApp(appID string)
	// NotifyEvent fans a control-channel event out to all peers.
	NotifyEvent(ev *wire.Message)
}

// ServerOfApp extracts the host server name from an application id of the
// form "server#count" — the analogue of recovering the server's IP
// address from the identifier in the paper.
func ServerOfApp(appID string) string {
	if i := strings.LastIndex(appID, "#"); i >= 0 {
		return appID[:i]
	}
	return ""
}

// ServerOfClient extracts the server name from a client id of the form
// "server/client-N".
func ServerOfClient(clientID string) string {
	if i := strings.Index(clientID, "/"); i >= 0 {
		return clientID[:i]
	}
	return ""
}

// Config configures a Server.
type Config struct {
	Name             string // unique server name; no '/' or '#'
	FifoCapacity     int    // per-client buffer capacity (0 = default)
	RecordUpdates    bool   // insert every periodic update into the record DB
	TraceSampleEvery int    // sample 1-in-N requests for tracing (0 = off)
	EnablePprof      bool   // mount net/http/pprof under /debug/pprof
	Logf             func(format string, args ...any)

	// Edge admission control (the /api/v1 gate).
	MaxInflight       int           // global concurrent-request cap (0 = default)
	MaxStreams        int           // long-lived delivery-stream cap (0 = default)
	LoginRatePerSec   float64       // per-user login token-bucket rate (0 = unlimited)
	LoginBurst        float64       // login bucket burst (0 = rate)
	RequestRatePerSec float64       // per-session request bucket rate (0 = unlimited)
	RequestBurst      float64       // request bucket burst (0 = rate)
	RetryAfterHint    time.Duration // retry_after_ms hint on shed requests (0 = default)

	// Streaming delivery (the /session/{id}/stream edge).
	StreamHeartbeat time.Duration // SSE heartbeat/liveness interval (0 = default)

	// Durability (internal/storage). A nil Storage runs the domain
	// purely in memory, exactly as before; a backend makes every domain
	// mutation WAL-journaled with periodic snapshots, and New replays
	// snapshot + WAL before the server becomes reachable.
	Storage       storage.Backend // WAL + snapshot backend (nil = no durability)
	SnapshotEvery time.Duration   // snapshot/compaction cadence (0 = default)
	WalSyncEvery  time.Duration   // WAL group-fsync cadence (0 = storage default)
}

// Server is one interaction/collaboration server instance.
type Server struct {
	cfg      Config
	auth     *auth.Service
	sessions *session.Manager
	hub      *collab.Hub
	locks    *lockmgr.Manager
	store    *archive.Store
	db       *recorddb.DB
	daemon   *appproto.Daemon
	gate     *edgeGate
	streams  *streamHub
	storage  *domainStorage // nil = memory-only domain

	mu      sync.Mutex
	counter uint64
	proxies map[string]*ApplicationProxy
	fed     Federation
}

// New creates a server. Call ListenDaemon (and ServeHTTP via an
// http.Server) to make it reachable.
func New(cfg Config) (*Server, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("server: config needs a name")
	}
	if strings.ContainsAny(cfg.Name, "/#") {
		return nil, fmt.Errorf("server: name %q must not contain '/' or '#'", cfg.Name)
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	var (
		authOpts []auth.Option
		lockOpts []lockmgr.Option
		sessOpts = []session.Option{session.WithCapacity(cfg.FifoCapacity)}
		ds       *domainStorage
	)
	if cfg.Storage != nil {
		var err error
		if ds, err = newDomainStorage(cfg); err != nil {
			return nil, err
		}
		// The HMAC key persists with the domain so tokens and
		// capabilities issued before a restart verify after it.
		authOpts = append(authOpts, auth.WithKey(ds.authKey))
		sessOpts = append(sessOpts, session.WithJournal(ds.journal))
		lockOpts = append(lockOpts, lockmgr.WithJournal(ds.journal))
	}
	s := &Server{
		cfg:      cfg,
		auth:     auth.NewService(cfg.Name, authOpts...),
		sessions: session.NewManager(cfg.Name, sessOpts...),
		hub:      collab.NewHub(collab.WithOrigin(cfg.Name)),
		locks:    lockmgr.NewManager(lockOpts...),
		store:    archive.NewStore(),
		db:       recorddb.New(),
		proxies:  make(map[string]*ApplicationProxy),
		gate:     newEdgeGate(cfg),
		streams:  newStreamHub(cfg.StreamHeartbeat),
		storage:  ds,
	}
	if ds != nil {
		s.store.SetJournal(ds.journal)
		s.db.SetJournal(ds.journal)
	}
	s.daemon = appproto.NewDaemon((*daemonHandler)(s))
	if cfg.TraceSampleEvery > 0 {
		// The tracer is process-wide: in-process federations share it so a
		// trace's hops across domains merge under one id.
		telemetry.Default().SetSampleEvery(cfg.TraceSampleEvery)
	}
	if ds != nil {
		if err := s.recoverFromStorage(); err != nil {
			ds.journal.Close()
			return nil, err
		}
		// Wire the collab log to the WAL only after recovery so restored
		// ops are not re-journaled; from here on every newly applied op is
		// recorded and evicted ops can be spliced back for replay or sync.
		s.hub.SetOpSink(func(app string, op collab.Op) {
			ds.journal.Record(storage.KindCollabOp, collabOpEvent(app, op))
		})
		s.hub.SetFetchRange(s.collabSpliceRange)
		s.hub.SetFetchApply(s.collabSpliceApply)
		ds.startSnapshotter(s)
	}
	return s, nil
}

// Name returns the server's unique name.
func (s *Server) Name() string { return s.cfg.Name }

// Auth exposes the security handler (for registering home users).
func (s *Server) Auth() *auth.Service { return s.auth }

// Sessions exposes the session manager.
func (s *Server) Sessions() *session.Manager { return s.sessions }

// Hub exposes the collaboration hub.
func (s *Server) Hub() *collab.Hub { return s.hub }

// Locks exposes the lock manager.
func (s *Server) Locks() *lockmgr.Manager { return s.locks }

// Archive exposes the session-archival store.
func (s *Server) Archive() *archive.Store { return s.store }

// Records exposes the record database.
func (s *Server) Records() *recorddb.DB { return s.db }

// Daemon exposes the application daemon (for its address).
func (s *Server) Daemon() *appproto.Daemon { return s.daemon }

// SetFederation attaches the middleware substrate.
func (s *Server) SetFederation(f Federation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fed = f
}

func (s *Server) federation() Federation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fed
}

// ListenDaemon starts accepting application connections on addr.
func (s *Server) ListenDaemon(addr string) error { return s.daemon.Listen(addr) }

// StartJanitor launches a background reaper that logs out sessions idle
// (not polling) longer than maxIdle — releasing their collaboration
// memberships and steering locks so a vanished browser cannot wedge an
// application. It returns a stop function.
func (s *Server) StartJanitor(every, maxIdle time.Duration) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				s.ReapIdleSessions(maxIdle)
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// ReapIdleSessions logs out every session idle longer than maxIdle and
// returns how many were removed.
func (s *Server) ReapIdleSessions(maxIdle time.Duration) int {
	reaped := 0
	cutoff := time.Now().Add(-maxIdle)
	for _, sess := range s.sessions.List() {
		if sess.LastSeen().Before(cutoff) {
			s.cfg.Logf("server %s: reaping idle session %s (user %s)",
				s.cfg.Name, sess.ClientID, sess.User)
			s.Logout(context.Background(), sess)
			reaped++
		}
	}
	return reaped
}

// Close shuts the daemon down and, on a durable domain, persists a
// final snapshot, syncs the WAL, and writes the clean-shutdown marker
// so the next start recovers without replay.
func (s *Server) Close() {
	s.daemon.Close()
	if s.storage != nil {
		s.storage.shutdown(s)
	}
}

// ---------------------------------------------------------------------------
// Level-one interfaces (§3): server-level queries, used by HTTP clients
// and by peer servers through the substrate.
// ---------------------------------------------------------------------------

// Login authenticates a user by secret at this (home) server and creates
// a session. ctx bounds the userdir fallback lookup, when one is
// configured.
func (s *Server) Login(ctx context.Context, user, secret string) (*session.Session, error) {
	tok, err := s.auth.Login(ctx, user, secret)
	if err != nil {
		return nil, err
	}
	return s.sessions.Create(user, tok), nil
}

// LoginAsserted authenticates a peer-asserted user-id (the paper's
// cross-server trust model) without creating a session.
func (s *Server) LoginAsserted(user string) error {
	_, err := s.auth.LoginAsserted(user)
	return err
}

// LocalApps lists this server's applications visible to user.
func (s *Server) LocalApps(user string) []AppInfo {
	s.mu.Lock()
	proxies := make([]*ApplicationProxy, 0, len(s.proxies))
	for _, p := range s.proxies {
		proxies = append(proxies, p)
	}
	s.mu.Unlock()
	var out []AppInfo
	for _, p := range proxies {
		priv := s.auth.Privilege(user, p.ID())
		if priv == auth.None {
			continue
		}
		out = append(out, AppInfo{
			ID: p.ID(), Name: p.Registration().Name, Kind: p.Registration().Kind,
			Server: s.cfg.Name, Privilege: priv.String(),
		})
	}
	return out
}

// Apps lists local plus federated applications visible to user. ctx
// bounds the peer queries and carries the telemetry trace, if any.
func (s *Server) Apps(ctx context.Context, user string) []AppInfo {
	out := s.LocalApps(user)
	if fed := s.federation(); fed != nil {
		out = append(out, fed.RemoteApps(ctx, user)...)
	}
	return out
}

// LoggedInUsers lists users with active sessions here.
func (s *Server) LoggedInUsers() []string { return s.sessions.Users() }

// PrivilegeName returns the user's privilege for a local application, as
// a name ("none" when absent) — the level-two check peers invoke.
func (s *Server) PrivilegeName(user, appID string) string {
	return s.auth.Privilege(user, appID).String()
}

// Proxy returns the local ApplicationProxy for an app id.
func (s *Server) Proxy(appID string) (*ApplicationProxy, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.proxies[appID]
	return p, ok
}

// LocalAppIDs lists the ids of locally connected applications.
func (s *Server) LocalAppIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.proxies))
	for id := range s.proxies {
		out = append(out, id)
	}
	return out
}

// ---------------------------------------------------------------------------
// Remote-facing operations invoked by the substrate (the Host role).
// ---------------------------------------------------------------------------

// EnqueueLocalCommand buffers a command (possibly from a remote client)
// for a local application. Privilege (from the registered ACL) and the
// steering lock for mutating operations are enforced here, at the host
// server, for local and relayed commands alike.
func (s *Server) EnqueueLocalCommand(appID string, cmd *wire.Message) error {
	p, ok := s.Proxy(appID)
	if !ok {
		return fmt.Errorf("server: no local application %s", appID)
	}
	if err := s.enforceAtHost(appID, cmd); err != nil {
		return err
	}
	// The application log lives at the host server.
	s.store.ApplicationLog(appID).Append(cmd.Client, cmd)
	return p.Enqueue(cmd)
}

// LockRequest performs a (possibly relayed) lock operation on a local
// application. Lock state lives only here, at the host server.
func (s *Server) LockRequest(appID, owner string, acquire bool) (granted bool, holder string, err error) {
	if _, ok := s.Proxy(appID); !ok {
		return false, "", fmt.Errorf("server: no local application %s", appID)
	}
	if acquire {
		granted, holder = s.locks.TryAcquire(appID, owner, 0)
		return granted, holder, nil
	}
	if err := s.locks.Release(appID, owner); err != nil {
		return false, "", err
	}
	return true, "", nil
}

// SubscribeRelay registers a peer server as a relay member of a local
// application's collaboration group; deliver sends one message to that
// peer.
func (s *Server) SubscribeRelay(appID, peer string, deliver collab.DeliverFunc) error {
	if _, ok := s.Proxy(appID); !ok {
		return fmt.Errorf("server: no local application %s", appID)
	}
	s.hub.Group(appID).JoinRelay(peer, deliver)
	return nil
}

// DeliverRemoteMessage fans a message relayed from the app's host server
// out to this server's local clients — the second hop of the substrate's
// one-message-per-server collaboration scheme.
func (s *Server) DeliverRemoteMessage(appID string, m *wire.Message, fromServer string) {
	s.deliverRemote(s.hub.Group(appID), appID, m, fromServer)
}

// DeliverRemoteBatch fans a whole relayed batch out in arrival order with
// a single group lookup — the local half of the substrate's batched push
// (and poll) paths.
func (s *Server) DeliverRemoteBatch(appID string, msgs []*wire.Message, fromServer string) {
	if len(msgs) == 0 {
		return
	}
	g := s.hub.Group(appID)
	for _, m := range msgs {
		s.deliverRemote(g, appID, m, fromServer)
	}
}

func (s *Server) deliverRemote(g *collab.Group, appID string, m *wire.Message, fromServer string) {
	switch m.Kind {
	case wire.KindUpdate, wire.KindEvent, wire.KindViewShare:
		// View shares, like updates, carry no op identity and are not
		// logged.
		g.BroadcastUpdate(m, "relay/"+fromServer)
	case wire.KindResponse, wire.KindError:
		// The requester is one of our clients; archive at their server.
		s.store.InteractionLog(appID).Append(m.Client, m)
		s.recordResponse(appID, m)
		g.ShareResponse(m.Client, m)
	case wire.KindChat, wire.KindWhiteboard:
		// Merge into the replicated group log; a duplicate (relay
		// re-delivery overlapping anti-entropy sync) is not re-broadcast.
		if g.ApplyWire(m) {
			g.BroadcastUpdate(m, "relay/"+fromServer)
		}
	case wire.KindJoin, wire.KindLeave:
		// Membership ops update the converged fold only — they are
		// replica traffic, never client-visible.
		g.ApplyWire(m)
	}
}

// CollabVV returns the app group's anti-entropy watermark vector.
func (s *Server) CollabVV(appID string) map[string]uint64 {
	return s.hub.Group(appID).LogVV()
}

// CollabDeltas serves one side of a collab anti-entropy exchange: every
// op a partner with watermark vector vv is missing (spliced from the WAL
// below the eviction horizon) plus the watermarks it may adopt.
func (s *Server) CollabDeltas(appID string, vv map[string]uint64) ([]collab.Op, map[string]uint64) {
	g, ok := s.hub.Lookup(appID)
	if !ok {
		return nil, nil
	}
	ops, upTo, _ := g.LogDeltas(vv)
	return ops, upTo
}

// CollabApply merges a batch of ops received from a peer (the other side
// of the exchange), adopts the accompanying watermarks, and fans newly
// learned ops out locally: strokes/chat to local members (plus relays
// except the sending peer, when we are the host), membership ops to
// relays only. Returns how many ops were new.
func (s *Server) CollabApply(appID string, ops []collab.Op, upTo map[string]uint64, fromServer string) int {
	g := s.hub.Group(appID)
	fresh := g.ApplyOps(ops)
	g.LogApplyUpTo(upTo)
	for _, op := range fresh {
		m := g.OpMessage(op)
		switch m.Kind {
		case wire.KindJoin, wire.KindLeave:
			g.RelayBroadcast(m, fromServer)
		default:
			g.BroadcastUpdate(m, "relay/"+fromServer)
		}
	}
	return len(fresh)
}

// HandleControlEvent processes a control-channel event from a peer
// (application arrival/departure, errors): it is delivered to every local
// session so portals can refresh.
func (s *Server) HandleControlEvent(ev *wire.Message) {
	for _, sess := range s.sessions.List() {
		sess.Buffer.Push(ev)
	}
}

// PeerServerDown tears down lock state owned by a dead peer's clients:
// held locks pass to the next local waiter and that peer's queued waiters
// fail with ErrPeerUnavailable instead of blocking until lease expiry.
// The substrate calls this when its failure detector declares a peer
// down. Returns the apps whose lock state changed.
func (s *Server) PeerServerDown(peer string) []string {
	return s.locks.FailOwners(func(owner string) bool {
		return ServerOfClient(owner) == peer
	}, ErrPeerUnavailable)
}

// ---------------------------------------------------------------------------
// Daemon handler: the Daemon-servlet role.
// ---------------------------------------------------------------------------

// daemonHandler adapts Server to appproto.Handler without exporting the
// methods on Server itself.
type daemonHandler Server

func (d *daemonHandler) srv() *Server { return (*Server)(d) }

// AssignAppID mints "serverName#count": globally unique because server
// names are unique, and host-recoverable via ServerOfApp.
func (d *daemonHandler) AssignAppID(reg appproto.Registration) (string, error) {
	s := d.srv()
	if reg.Name == "" {
		return "", fmt.Errorf("server: registration without a name")
	}
	if len(reg.Users) == 0 {
		return "", fmt.Errorf("server: registration without an authorized user list")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counter++
	return fmt.Sprintf("%s#%d", s.cfg.Name, s.counter), nil
}

func (d *daemonHandler) AppRegistered(ep *appproto.AppEndpoint) {
	s := d.srv()
	reg := ep.Registration()
	entries := make([]auth.Entry, 0, len(reg.Users))
	for _, u := range reg.Users {
		p, err := auth.ParsePrivilege(u.Privilege)
		if err != nil {
			continue
		}
		entries = append(entries, auth.Entry{User: u.User, Priv: p})
	}
	s.auth.RegisterApp(ep.ID(), auth.NewACL(entries...))

	// Peers can reach the application before it becomes listable, so a
	// client that saw it listed can always connect.
	fed := s.federation()
	if fed != nil {
		fed.ExportApp(ep.ID())
	}
	proxy := newLocalProxy(s, ep)
	s.mu.Lock()
	s.proxies[ep.ID()] = proxy
	s.mu.Unlock()
	s.hub.Group(ep.ID()) // materialize the collaboration group

	s.cfg.Logf("server %s: application %s registered as %s", s.cfg.Name, reg.Name, ep.ID())
	ev := wire.NewEvent(s.cfg.Name, "app-registered", ep.ID())
	ev.App = ep.ID()
	s.HandleControlEvent(ev)
	if fed != nil {
		fed.NotifyEvent(ev)
	}
}

func (d *daemonHandler) AppClosed(appID string, err error) {
	s := d.srv()
	s.mu.Lock()
	delete(s.proxies, appID)
	s.mu.Unlock()
	s.auth.UnregisterApp(appID)
	s.locks.Break(appID)

	ev := wire.NewEvent(s.cfg.Name, "app-closed", appID)
	ev.App = appID
	s.hub.Group(appID).BroadcastUpdate(ev, "")
	s.hub.Drop(appID)
	s.cfg.Logf("server %s: application %s closed (%v)", s.cfg.Name, appID, err)
	if fed := s.federation(); fed != nil {
		fed.WithdrawApp(appID)
		fed.NotifyEvent(ev)
	}
}

// HandleUpdate archives a periodic update at the host server, records it
// in the database under the application owner, and broadcasts it to the
// collaboration group — local members and one relay per peer server with
// a present member. Updates are not replicated, so a server where nobody
// listens gets none.
func (d *daemonHandler) HandleUpdate(appID string, m *wire.Message) {
	s := d.srv()
	s.store.ApplicationLog(appID).Append("", m)
	p, ok := s.Proxy(appID)
	if ok && s.cfg.RecordUpdates {
		reg := p.Registration()
		readers := make([]string, 0, len(reg.Users))
		for _, u := range reg.Users {
			readers = append(readers, u.User)
		}
		fields := map[string]string{"app": appID, "kind": "periodic", "seq": fmt.Sprint(m.Seq)}
		for _, kv := range m.Params {
			fields[kv.Key] = kv.Value
		}
		s.db.Table("updates").Insert(reg.Owner, fields, readers)
	}
	s.hub.Group(appID).BroadcastToListeners(m, "")
}

// HandleResponse routes an application's response: if the requester is a
// local client it is archived and shared here; otherwise it is forwarded
// once to the requester's server relay.
func (d *daemonHandler) HandleResponse(appID string, m *wire.Message) {
	s := d.srv()
	s.store.ApplicationLog(appID).Append(m.Client, m)
	if ServerOfClient(m.Client) == s.cfg.Name {
		s.store.InteractionLog(appID).Append(m.Client, m)
		s.recordResponse(appID, m)
		s.hub.Group(appID).ShareResponse(m.Client, m)
		return
	}
	// Remote requester: one message to their server's relay. If the peer
	// never subscribed, the response is archived only.
	s.hub.Group(appID).DeliverToRelay(ServerOfClient(m.Client), m)
}

// recordResponse stores response payloads as records owned by the
// requesting user, at the requester's server (§6.3).
func (s *Server) recordResponse(appID string, m *wire.Message) {
	sess, ok := s.sessions.Peek(m.Client)
	if !ok {
		return
	}
	fields := map[string]string{
		"app": appID, "kind": "response", "op": m.Op,
		"status": fmt.Sprint(m.Status), "seq": fmt.Sprint(m.Seq),
	}
	for _, kv := range m.Params {
		fields[kv.Key] = kv.Value
	}
	s.db.Table("responses").Insert(sess.User, fields, nil)
}
