package core

import (
	"errors"
	"sort"

	"discover/internal/collab"
	"discover/internal/orb"
	"discover/internal/server"
	"discover/internal/wire"
)

// Object keys for the substrate's servants.
const (
	ServerKey      = "DiscoverServer"
	ControlKey     = "Control"
	proxyKeyPrefix = "CorbaProxy/"
)

// ProxyKey returns the object key of an application's CorbaProxy.
func ProxyKey(appID string) string { return proxyKeyPrefix + appID }

// Wire types for the level-one DiscoverCorbaServer interface.
type (
	authUserReq   struct{ User string }
	authUserResp  struct{ OK bool }
	listAppsReq   struct{ User string }
	listAppsResp  struct{ Apps []server.AppInfo }
	listUsersReq  struct{}
	listUsersResp struct{ Users []string }
	privilegeReq  struct{ User, App string }
	privilegeResp struct{ Privilege string }
	subscribeReq  struct {
		App      string
		Peer     string // subscribing server's name
		PeerAddr string // subscribing server's ORB address
	}
	subscribeResp struct{}
	pingReq       struct{}
	pingResp      struct{ Name string }
)

// Wire types for the level-two CorbaProxy interface.
type (
	commandReq  struct{ Cmd *wire.Message }
	commandResp struct{}
	lockReq     struct {
		Owner   string
		Acquire bool
	}
	lockResp struct {
		Granted bool
		Holder  string
	}
	collabReq struct {
		Msg  *wire.Message
		From string
	}
	collabResp struct{}
	// collabSyncReq/Resp are the pull leg of collab anti-entropy: the
	// requester sends its watermark vector and receives every op it is
	// missing plus the watermarks it may adopt afterwards.
	collabSyncReq struct {
		From string            // requesting server
		VV   map[string]uint64 // requester's per-origin watermark vector
	}
	collabSyncResp struct {
		Ops []collab.Op
		VV  map[string]uint64
	}
	// collabPushReq is the push leg: ops the requester holds that the
	// host's answered vector showed it was missing.
	collabPushReq struct {
		From string
		Ops  []collab.Op
		VV   map[string]uint64
	}
	collabPushResp struct{}
)

// Wire types for the Control channel.
type (
	deliverReq struct {
		App  string
		Msg  *wire.Message
		From string
	}
	deliverResp struct{}
	deliverItem struct {
		App string
		Msg *wire.Message
	}
	deliverBatchReq struct {
		Items []deliverItem
		From  string
	}
	deliverBatchResp struct{}
	eventReq         struct {
		Ev   *wire.Message
		From string
	}
	eventResp struct{}
)

// registerServants installs the substrate's servants on its ORB.
func (s *Substrate) registerServants() {
	s.orb.Register(ServerKey, s.serverServant())
	s.orb.Register(ControlKey, s.controlServant())
}

// serverServant is the DiscoverCorbaServer: the server's gateway for all
// other DISCOVER servers.
func (s *Substrate) serverServant() orb.Servant {
	return orb.MethodMap{
		"authenticateUser": orb.Handler(func(r authUserReq) (authUserResp, error) {
			err := s.srv.LoginAsserted(r.User)
			return authUserResp{OK: err == nil}, nil
		}),
		"listApplications": orb.Handler(func(r listAppsReq) (listAppsResp, error) {
			return listAppsResp{Apps: s.srv.LocalApps(r.User)}, nil
		}),
		"listUsers": orb.Handler(func(listUsersReq) (listUsersResp, error) {
			return listUsersResp{Users: s.srv.LoggedInUsers()}, nil
		}),
		"privilege": orb.Handler(func(r privilegeReq) (privilegeResp, error) {
			return privilegeResp{Privilege: s.srv.PrivilegeName(r.User, r.App)}, nil
		}),
		"subscribe": orb.Handler(func(r subscribeReq) (subscribeResp, error) {
			return subscribeResp{}, refusal(s.acceptSubscription(r))
		}),
		"ping": orb.Handler(func(pingReq) (pingResp, error) {
			return pingResp{Name: s.srv.Name()}, nil
		}),
	}
}

// controlServant receives pushed group traffic and system events from
// peers.
func (s *Substrate) controlServant() orb.Servant {
	return orb.MethodMap{
		"deliver": orb.Handler(func(r deliverReq) (deliverResp, error) {
			s.srv.DeliverRemoteMessage(r.App, r.Msg, r.From)
			return deliverResp{}, nil
		}),
		// deliverBatch is the batched form of deliver: one invocation
		// carries a whole drained relay queue. Items arrive in the
		// host's enqueue order; consecutive same-app runs share one
		// local fan-out call so ordering within an app is untouched.
		"deliverBatch": orb.Handler(func(r deliverBatchReq) (deliverBatchResp, error) {
			for start := 0; start < len(r.Items); {
				end := start + 1
				for end < len(r.Items) && r.Items[end].App == r.Items[start].App {
					end++
				}
				msgs := make([]*wire.Message, 0, end-start)
				for _, it := range r.Items[start:end] {
					msgs = append(msgs, it.Msg)
				}
				s.srv.DeliverRemoteBatch(r.Items[start].App, msgs, r.From)
				start = end
			}
			return deliverBatchResp{}, nil
		}),
		"event": orb.Handler(func(r eventReq) (eventResp, error) {
			// An application lifecycle event makes every listing cached
			// from the app's host stale: drop their freshness before the
			// server reacts, so the next listing refetches coherently.
			if r.Ev != nil && (r.Ev.Op == "app-registered" || r.Ev.Op == "app-closed") {
				origin := server.ServerOfApp(r.Ev.App)
				if origin == "" {
					origin = r.From
				}
				s.dir.invalidatePeer(origin, true)
			}
			s.srv.HandleControlEvent(r.Ev)
			return eventResp{}, nil
		}),
	}
}

// CodePolicy is the error code returned when a peer exceeds its resource
// policy (§6.3 resource utilization).
const CodePolicy = "RESOURCE_POLICY"

// maxMembershipWire bounds the meter exemption for membership
// replication messages: they carry only ids and the op identity stamp,
// so anything larger is charged against the peer's budget.
const maxMembershipWire = 1024

// meter applies the host's per-peer resource accounting; the principal is
// the peer server on whose behalf the request arrives.
func (s *Substrate) meter(principal string, bytes int) error {
	if principal == "" || s.acct.Allow(principal, bytes) {
		return nil
	}
	return &orb.RemoteError{Code: CodePolicy, Msg: principal + " exceeded its access policy"}
}

// refusal gives a host-side refusal its API error code before it crosses
// the ORB, so the requesting server answers its client with the code the
// host would have answered (409 lock_held, 403 forbidden, ...) instead of
// an unclassified APPLICATION error. Registry codes are lowercase and so
// never collide with the ORB's own uppercase codes; an error the registry
// cannot classify crosses unchanged.
func refusal(err error) error {
	var re *orb.RemoteError
	if err == nil || errors.As(err, &re) {
		return err
	}
	code := server.CodeOf(err)
	if code == server.CodeInternal {
		return err
	}
	return &orb.RemoteError{Code: string(code), Msg: err.Error()}
}

// proxyServant is the CorbaProxy for one local application: the
// application's gateway for all other servers.
func (s *Substrate) proxyServant(appID string) orb.Servant {
	return orb.MethodMap{
		"command": orb.Handler(func(r commandReq) (commandResp, error) {
			if err := s.meter(server.ServerOfClient(r.Cmd.Client), r.Cmd.ApproxSize()); err != nil {
				return commandResp{}, err
			}
			return commandResp{}, refusal(s.srv.EnqueueLocalCommand(appID, r.Cmd))
		}),
		"lock": orb.Handler(func(r lockReq) (lockResp, error) {
			if err := s.meter(server.ServerOfClient(r.Owner), 0); err != nil {
				return lockResp{}, err
			}
			granted, holder, err := s.srv.LockRequest(appID, r.Owner, r.Acquire)
			if err != nil {
				return lockResp{}, refusal(err)
			}
			return lockResp{Granted: granted, Holder: holder}, nil
		}),
		"collab": orb.Handler(func(r collabReq) (collabResp, error) {
			// Membership replication (join/leave/sub-switch ops) is
			// middleware bookkeeping the CRDT log needs to converge; only
			// user-originated traffic (chat, strokes, view shares) draws
			// down the origin domain's access-policy budget. The exemption
			// is validated, not taken on the peer's word: the message must
			// be payload-free with a membership op stamp and small enough
			// for pure bookkeeping, or it is metered like any other
			// traffic — a peer cannot bypass its budget by tagging bulk
			// data as a join.
			size := r.Msg.ApproxSize()
			if !collab.MembershipWire(r.Msg) || size > maxMembershipWire {
				if err := s.meter(r.From, size); err != nil {
					return collabResp{}, err
				}
			}
			s.srv.DeliverCollabFromPeer(appID, r.Msg, r.From)
			return collabResp{}, nil
		}),
		// collabSync/collabPush are the two legs of the replicated-log
		// anti-entropy exchange (DESIGN §4l). Like membership ops above,
		// they are replication bookkeeping and bypass the policy meter.
		"collabSync": orb.Handler(func(r collabSyncReq) (collabSyncResp, error) {
			ops, upTo := s.srv.CollabDeltas(appID, r.VV)
			return collabSyncResp{Ops: ops, VV: upTo}, nil
		}),
		"collabPush": orb.Handler(func(r collabPushReq) (collabPushResp, error) {
			s.srv.CollabApply(appID, r.Ops, r.VV, r.From)
			return collabPushResp{}, nil
		}),
	}
}

// sortAppInfos keeps merged app lists deterministic for clients.
func sortAppInfos(apps []server.AppInfo) {
	sort.Slice(apps, func(i, j int) bool { return apps[i].ID < apps[j].ID })
}
