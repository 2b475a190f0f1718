package server

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"discover/internal/archive"
	"discover/internal/auth"
	"discover/internal/collab"
	"discover/internal/recorddb"
	"discover/internal/session"
	"discover/internal/telemetry"
	"discover/internal/wire"
)

// Operation errors surfaced to clients.
var (
	ErrNotConnected = errors.New("server: session not connected to an application")
	ErrDenied       = errors.New("server: privilege too low for this operation")
	ErrNeedLock     = errors.New("server: steering lock required")
	ErrUnknownApp   = errors.New("server: unknown application")
)

// opPrivilege maps each command to the minimum privilege it needs.
// Unknown operations require Steer, the safe default.
var opPrivilege = map[string]auth.Privilege{
	"status":      auth.Monitor,
	"get_param":   auth.Monitor,
	"list_params": auth.Monitor,
	"sensor":      auth.Interact,
	"checkpoint":  auth.Interact,
	"view":        auth.Interact,
	"set_param":   auth.Steer,
	"actuate":     auth.Steer,
	"pause":       auth.Steer,
	"resume":      auth.Steer,
	"restore":     auth.Steer,
}

// opMutating marks commands that drive the application and therefore
// require holding the steering lock.
var opMutating = map[string]bool{
	"set_param": true,
	"actuate":   true,
	"pause":     true,
	"resume":    true,
	"restore":   true,
}

func requiredPrivilege(op string) auth.Privilege {
	if p, ok := opPrivilege[op]; ok {
		return p
	}
	return auth.Steer
}

var cmdSeq atomic.Uint64

// edgeSpan closes the edge hop of a sampled request: everything from the
// trace's mint at the HTTP handler up to the moment the request leaves
// the server layer (into the substrate or the local app queue).
func (s *Server) edgeSpan(ctx context.Context, op string) {
	if tr := telemetry.TraceFrom(ctx); tr != nil {
		tr.AddSpan(telemetry.HopEdge, op, s.cfg.Name, "", tr.Begin(), time.Since(tr.Begin()))
	}
}

// ConnectApp performs level-two authorization for a session and joins it
// to the application's collaboration group. For remote applications the
// authorization happens at the host server through the substrate, a
// relay subscription is established, and the join op reaches the host
// before ConnectApp returns: a nil error means the host relays the
// application's updates to this server.
func (s *Server) ConnectApp(ctx context.Context, sess *session.Session, appID string) (auth.Capability, error) {
	var cap auth.Capability
	if ServerOfApp(appID) == s.cfg.Name {
		if _, ok := s.Proxy(appID); !ok {
			return cap, ErrUnknownApp
		}
		var err error
		cap, err = s.auth.Authorize(sess.Token, appID)
		if err != nil {
			return cap, err
		}
	} else {
		fed := s.federation()
		if fed == nil {
			return cap, ErrUnknownApp
		}
		s.edgeSpan(ctx, "connect "+appID)
		privName, err := fed.RemotePrivilege(ctx, sess.User, appID)
		if err != nil {
			return cap, err
		}
		priv, err := auth.ParsePrivilege(privName)
		if err != nil || priv == auth.None {
			return cap, auth.ErrNoAccess
		}
		if err := fed.Subscribe(ctx, appID); err != nil {
			return cap, err
		}
		cap = s.auth.MintCapability(sess.User, appID, priv)
	}
	sess.Connect(appID, cap)
	g := s.hub.Group(appID)
	g.Join(sess.ClientID, func(m *wire.Message) { sess.Buffer.Push(m) })
	// Membership is replicated group state: append the join op and push
	// it toward the rest of the federation's replicas.
	if err := s.disseminateMembership(ctx, appID, g, g.NoteJoin(sess.ClientID)); err != nil {
		// The host may not count this server as listening: undo the join.
		// Anti-entropy carries the leave op to wherever the join landed.
		g.Leave(sess.ClientID)
		g.NoteLeave(sess.ClientID)
		sess.Disconnect()
		return auth.Capability{}, err
	}
	return cap, nil
}

// disseminateMembership routes a membership op (join/leave/sub-switch)
// to peer-server replicas: at the host server straight to the relays, at
// a member server through the host. Membership ops are replica traffic,
// not client-visible messages, so they never enter local FIFOs.
func (s *Server) disseminateMembership(ctx context.Context, appID string, g *collab.Group, m *wire.Message) error {
	if ServerOfApp(appID) == s.cfg.Name {
		g.RelayBroadcast(m, "")
		return nil
	}
	return s.collabForward(ctx, appID, m)
}

// DisconnectApp leaves the application's collaboration group and releases
// any steering lock the client still holds. ctx bounds the best-effort
// remote lock release.
func (s *Server) DisconnectApp(ctx context.Context, sess *session.Session) {
	appID := sess.App()
	if appID == "" {
		return
	}
	g := s.hub.Group(appID)
	g.Leave(sess.ClientID)
	s.disseminateMembership(ctx, appID, g, g.NoteLeave(sess.ClientID))
	if ServerOfApp(appID) == s.cfg.Name {
		s.locks.ReleaseAllOwnedBy(sess.ClientID)
	} else if fed := s.federation(); fed != nil {
		fed.RemoteLock(ctx, appID, sess.ClientID, false) // best-effort release
	}
	sess.Disconnect()
}

// Logout removes the session entirely, along with its admission-control
// bucket state.
func (s *Server) Logout(ctx context.Context, sess *session.Session) {
	s.DisconnectApp(ctx, sess)
	s.sessions.Remove(sess.ClientID)
	s.gate.forgetSession(sess.ClientID)
}

// SubmitCommand validates and routes one client command. The response
// arrives asynchronously in the client's FIFO buffer. The returned
// message is the accepted command (carrying its sequence number). ctx
// bounds the remote forward and carries the telemetry trace, if any.
func (s *Server) SubmitCommand(ctx context.Context, sess *session.Session, op string, params []wire.Param) (*wire.Message, error) {
	appID := sess.App()
	if appID == "" {
		return nil, ErrNotConnected
	}
	cap := sess.Capability()
	if err := s.auth.VerifyCapability(cap); err != nil {
		return nil, err
	}
	if !cap.Priv.AtLeast(requiredPrivilege(op)) {
		return nil, ErrDenied
	}
	cmd := wire.NewCommand(appID, sess.ClientID, op, params...)
	cmd.Seq = cmdSeq.Add(1)
	cmd.Set("_user", sess.User)

	// The interaction log lives at the client's server.
	s.store.InteractionLog(appID).Append(sess.ClientID, cmd)

	s.edgeSpan(ctx, "command "+op)
	if ServerOfApp(appID) == s.cfg.Name {
		return cmd, s.EnqueueLocalCommand(appID, cmd)
	}
	fed := s.federation()
	if fed == nil {
		return nil, ErrUnknownApp
	}
	return cmd, fed.ForwardCommand(ctx, appID, cmd)
}

// EnqueueLocalCommand is extended with host-side enforcement: privilege
// (from the ACL the application registered) and the steering lock for
// mutating operations are checked here, at the application's host server,
// for local and relayed commands alike.
func (s *Server) enforceAtHost(appID string, cmd *wire.Message) error {
	user, _ := cmd.Get("_user")
	if !s.auth.Privilege(user, appID).AtLeast(requiredPrivilege(cmd.Op)) {
		return ErrDenied
	}
	if opMutating[cmd.Op] {
		holder, held := s.locks.Holder(appID)
		if !held || holder != cmd.Client {
			return ErrNeedLock
		}
	}
	return nil
}

// LockOp acquires or releases the steering lock for the session's
// application, relaying to the host server when the application is
// remote. Lock state lives only at the host server (§5.2.4).
func (s *Server) LockOp(ctx context.Context, sess *session.Session, acquire bool) (granted bool, holder string, err error) {
	appID := sess.App()
	if appID == "" {
		return false, "", ErrNotConnected
	}
	if !sess.Capability().Priv.AtLeast(auth.Steer) {
		return false, "", ErrDenied
	}
	if ServerOfApp(appID) == s.cfg.Name {
		return s.LockRequest(appID, sess.ClientID, acquire)
	}
	fed := s.federation()
	if fed == nil {
		return false, "", ErrUnknownApp
	}
	s.edgeSpan(ctx, "lock "+appID)
	return fed.RemoteLock(ctx, appID, sess.ClientID, acquire)
}

// collabForward sends a collaboration message originated by a local
// client toward the rest of a cross-server group. ctx bounds the remote
// forward and carries the telemetry trace, if any.
func (s *Server) collabForward(ctx context.Context, appID string, m *wire.Message) error {
	if ServerOfApp(appID) == s.cfg.Name {
		return nil // local group's relays already received it
	}
	if fed := s.federation(); fed != nil {
		return fed.ForwardCollab(ctx, appID, m)
	}
	return nil
}

// collabGroup resolves the session's live collaboration group and checks
// the session may mutate shared state through it.
func (s *Server) collabGroup(sess *session.Session) (*collab.Group, string, error) {
	appID := sess.App()
	if appID == "" {
		return nil, "", ErrNotConnected
	}
	g, ok := s.hub.Lookup(appID)
	if !ok {
		return nil, "", ErrGroupNotFound
	}
	enabled, _, member := g.Member(sess.ClientID)
	if !member {
		return nil, "", ErrNotConnected
	}
	if !enabled {
		return nil, "", ErrCollabDisabled
	}
	return g, appID, nil
}

// Chat sends a chat line to the session's collaboration (sub-)group,
// across servers when the group spans them. The line becomes a
// replicated op; the forwarded message carries its identity so every
// replica merges it exactly once.
func (s *Server) Chat(ctx context.Context, sess *session.Session, text string) error {
	g, appID, err := s.collabGroup(sess)
	if err != nil {
		return err
	}
	m, _ := g.Chat(sess.ClientID, sess.User, text)
	s.edgeSpan(ctx, "chat "+appID)
	s.collabForward(ctx, appID, m)
	return nil
}

// Whiteboard adds a stroke as a replicated op, retained (bounded, with
// journal fallback) for latecomers and broadcast across the group.
func (s *Server) Whiteboard(ctx context.Context, sess *session.Session, stroke []byte) error {
	g, appID, err := s.collabGroup(sess)
	if err != nil {
		return err
	}
	m, _ := g.Whiteboard(sess.ClientID, stroke)
	s.edgeSpan(ctx, "whiteboard "+appID)
	s.collabForward(ctx, appID, m)
	return nil
}

// ShareView explicitly shares a view with the session's sub-group even
// when the session has collaboration disabled.
func (s *Server) ShareView(ctx context.Context, sess *session.Session, view []byte) error {
	appID := sess.App()
	if appID == "" {
		return ErrNotConnected
	}
	m := &wire.Message{Kind: wire.KindViewShare, App: appID, Client: sess.ClientID, Data: view}
	s.hub.Group(appID).ShareView(sess.ClientID, m)
	s.edgeSpan(ctx, "share "+appID)
	s.collabForward(ctx, appID, m)
	return nil
}

// SetCollaboration flips the session's collaboration mode.
func (s *Server) SetCollaboration(sess *session.Session, enabled bool) error {
	appID := sess.App()
	if appID == "" {
		return ErrNotConnected
	}
	if !s.hub.Group(appID).SetEnabled(sess.ClientID, enabled) {
		return ErrNotConnected
	}
	return nil
}

// JoinSubGroup moves the session into a named sub-group ("" = main) and
// replicates the switch so every domain's converged membership agrees.
func (s *Server) JoinSubGroup(ctx context.Context, sess *session.Session, sub string) error {
	appID := sess.App()
	if appID == "" {
		return ErrNotConnected
	}
	g := s.hub.Group(appID)
	if !g.JoinSub(sess.ClientID, sub) {
		return ErrNotConnected
	}
	s.disseminateMembership(ctx, appID, g, g.NoteSub(sess.ClientID, sub))
	return nil
}

// DeliverCollabFromPeer merges a collaboration message that arrived from
// a peer server into the replicated log and fans it out to this (host)
// server's group: local members plus every relay except the origin.
// Duplicates — a relay echo overlapping an anti-entropy sync — merge as
// no-ops and are not re-broadcast. View shares carry no op identity and
// are fanned out without touching the log.
func (s *Server) DeliverCollabFromPeer(appID string, m *wire.Message, fromServer string) {
	g := s.hub.Group(appID)
	if m.Kind == wire.KindViewShare {
		g.BroadcastUpdate(m, "relay/"+fromServer)
		return
	}
	if !g.ApplyWire(m) {
		return
	}
	switch m.Kind {
	case wire.KindJoin, wire.KindLeave:
		// Membership ops replicate between servers only.
		g.RelayBroadcast(m, fromServer)
	default:
		g.BroadcastUpdate(m, "relay/"+fromServer)
	}
}

// Replay returns the session's application interaction log from a
// sequence number, supporting client replay and latecomer catch-up.
func (s *Server) Replay(sess *session.Session, fromSeq uint64) ([]archive.Entry, error) {
	appID := sess.App()
	if appID == "" {
		return nil, ErrNotConnected
	}
	return s.store.InteractionLog(appID).Since(fromSeq), nil
}

// QueryRecords lists records visible to the session's user.
func (s *Server) QueryRecords(sess *session.Session, table string, filter map[string]string) ([]recorddb.Record, error) {
	t, err := s.db.Lookup(table)
	if err != nil {
		return nil, err
	}
	return t.Filter(sess.User, filter), nil
}
