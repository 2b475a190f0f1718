package core

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"discover/internal/app"
	"discover/internal/appproto"
	"discover/internal/auth"
	"discover/internal/netsim"
	"discover/internal/orb"
	"discover/internal/policy"
	"discover/internal/portal"
	"discover/internal/server"
	"discover/internal/session"
	"discover/internal/wire"
)

// testNet is a federation of DISCOVER domains plus a shared trader.
type testNet struct {
	t         *testing.T
	traderORB *orb.ORB
	traderRef orb.ObjRef
	domains   map[string]*domain

	// wan, when set, routes every domain's ORB dials through a netsim
	// network, each domain at its own site (see newWANNet).
	wan    *netsim.Network
	siteMu sync.Mutex
	siteOf map[string]netsim.Site // ORB listen addr -> site
}

type domain struct {
	srv *server.Server
	orb *orb.ORB
	sub *Substrate
	app *appproto.Session // optional
}

func newTestNet(t *testing.T) *testNet {
	t.Helper()
	to := orb.New()
	if err := to.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { to.Close() })
	to.Register(orb.TraderKey, orb.NewTrader().Servant())
	return &testNet{
		t:         t,
		traderORB: to,
		traderRef: orb.ObjRef{Addr: to.Addr(), Key: orb.TraderKey},
		domains:   make(map[string]*domain),
	}
}

func (n *testNet) addDomain(name string) *domain {
	n.t.Helper()
	srv, err := server.New(server.Config{Name: name, RecordUpdates: true, Logf: func(string, ...any) {}})
	if err != nil {
		n.t.Fatal(err)
	}
	if err := srv.ListenDaemon("127.0.0.1:0"); err != nil {
		n.t.Fatal(err)
	}
	n.t.Cleanup(srv.Close)
	srv.Auth().SetUserSecret("alice", "pw")
	srv.Auth().SetUserSecret("bob", "pw")

	var opts []orb.Option
	if n.wan != nil {
		opts = append(opts, orb.WithDialer(func(ctx context.Context, network, addr string) (net.Conn, error) {
			n.siteMu.Lock()
			to, ok := n.siteOf[addr]
			n.siteMu.Unlock()
			if !ok {
				to = "trader"
			}
			return n.wan.DialContext(ctx, netsim.Site(name), to, network, addr)
		}))
	}
	o := orb.New(opts...)
	if err := o.Listen("127.0.0.1:0"); err != nil {
		n.t.Fatal(err)
	}
	n.t.Cleanup(func() { o.Close() })
	if n.wan != nil {
		n.siteMu.Lock()
		n.siteOf[o.Addr()] = netsim.Site(name)
		n.siteMu.Unlock()
	}

	sub, err := New(Config{
		Server:        srv,
		ORB:           o,
		TraderRef:     n.traderRef,
		DiscoverEvery: 200 * time.Millisecond,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		n.t.Fatal(err)
	}
	if err := sub.Start(); err != nil {
		n.t.Fatal(err)
	}
	n.t.Cleanup(sub.Close)

	d := &domain{srv: srv, orb: o, sub: sub}
	n.domains[name] = d
	return d
}

// discoverAll forces every domain to refresh its peer table now.
func (n *testNet) discoverAll() {
	for _, d := range n.domains {
		if err := d.sub.DiscoverPeers(); err != nil {
			n.t.Fatal(err)
		}
	}
}

// attachApp connects a synthetic application to a domain's server.
func (n *testNet) attachApp(d *domain, name string, users []app.UserGrant) *appproto.Session {
	n.t.Helper()
	rt, err := app.NewRuntime(app.Config{
		Name: name, Kernel: app.NewSeismic1D(64), ComputeSteps: 2, Users: users,
	})
	if err != nil {
		n.t.Fatal(err)
	}
	as, err := appproto.Dial(context.Background(), d.srv.Daemon().Addr(), rt)
	if err != nil {
		n.t.Fatal(err)
	}
	n.t.Cleanup(func() { as.Close() })
	deadline := time.Now().Add(2 * time.Second)
	for len(d.srv.LocalAppIDs()) == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	d.app = as
	return as
}

func defaultUsers() []app.UserGrant {
	return []app.UserGrant{
		{User: "alice", Privilege: "steer"},
		{User: "bob", Privilege: "monitor"},
	}
}

// drained empties a session's delivery queue and returns its messages.
func drained(q *session.Queue) []*wire.Message {
	ents, _ := q.DrainEntries(0)
	out := make([]*wire.Message, len(ents))
	for i, e := range ents {
		out[i] = e.Msg
	}
	return out
}

// waitFor polls a predicate driving optional phase pumps.
func waitFor(t *testing.T, timeout time.Duration, step func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if step() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never satisfied")
}

func TestDiscoveryViaTrader(t *testing.T) {
	n := newTestNet(t)
	a := n.addDomain("rutgers")
	b := n.addDomain("caltech")
	c := n.addDomain("utexas")
	n.discoverAll()

	for _, d := range []*domain{a, b, c} {
		peers := d.sub.Peers()
		if len(peers) != 2 {
			t.Errorf("%s sees peers %v", d.srv.Name(), peers)
		}
		for _, p := range peers {
			if p == d.srv.Name() {
				t.Errorf("%s discovered itself", p)
			}
		}
	}
}

func TestSubstrateCloseWithdrawsOffer(t *testing.T) {
	n := newTestNet(t)
	a := n.addDomain("rutgers")
	b := n.addDomain("caltech")
	n.discoverAll()
	if len(a.sub.Peers()) != 1 {
		t.Fatal("setup failed")
	}
	b.sub.Close()
	// One missed discovery round keeps a known peer (marked suspect) to
	// ride out a momentary trader-offer lapse; the second drops it.
	if err := a.sub.DiscoverPeers(); err != nil {
		t.Fatal(err)
	}
	if len(a.sub.Peers()) != 1 {
		t.Errorf("peer dropped on first missed round: %v", a.sub.Peers())
	}
	if err := a.sub.DiscoverPeers(); err != nil {
		t.Fatal(err)
	}
	if len(a.sub.Peers()) != 0 {
		t.Errorf("withdrawn peer still discovered: %v", a.sub.Peers())
	}
}

func TestGlobalAppListMergesDomains(t *testing.T) {
	n := newTestNet(t)
	a := n.addDomain("rutgers")
	b := n.addDomain("caltech")
	n.attachApp(a, "wave-a", defaultUsers())
	n.attachApp(b, "wave-b", defaultUsers())
	n.discoverAll()

	apps := a.srv.Apps(context.Background(), "alice")
	if len(apps) != 2 {
		t.Fatalf("alice sees %v", apps)
	}
	servers := map[string]bool{}
	for _, ai := range apps {
		servers[ai.Server] = true
		if ai.Privilege != "steer" {
			t.Errorf("privilege = %q", ai.Privilege)
		}
	}
	if !servers["rutgers"] || !servers["caltech"] {
		t.Errorf("servers = %v", servers)
	}

	// ACL filtering is enforced at each peer: an unknown user sees nothing.
	if apps := a.srv.Apps(context.Background(), "mallory"); len(apps) != 0 {
		t.Errorf("mallory sees %v", apps)
	}
}

// TestProxyServantFollowsRegistration checks that a peer finds an
// application's CorbaProxy from its id alone: the id names the host, the
// peer table gives the host's address, and the servant answers there
// while the application is registered and is gone once it closes.
func TestProxyServantFollowsRegistration(t *testing.T) {
	n := newTestNet(t)
	a := n.addDomain("rutgers")
	b := n.addDomain("caltech")
	as := n.attachApp(a, "wave", defaultUsers())
	n.discoverAll()
	appID := as.AppID()

	p, err := b.sub.peerFor(appID)
	if err != nil {
		t.Fatal(err)
	}
	ref := b.sub.proxyRef(p, appID)
	if ref != a.orb.Ref(ProxyKey(appID)) {
		t.Fatalf("proxyRef = %v, want %v", ref, a.orb.Ref(ProxyKey(appID)))
	}
	pull := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		return b.orb.Invoke(ctx, ref, "collabSync", collabSyncReq{From: "caltech"}, &collabSyncResp{})
	}
	if err := pull(); err != nil {
		t.Fatalf("CorbaProxy at %v: %v", ref, err)
	}
	as.Close()
	waitFor(t, 2*time.Second, func() bool { return orb.IsRemote(pull(), orb.CodeNoServant) })
}

// remoteSteeringTest exercises the full remote path.
func remoteSteeringTest(t *testing.T) {
	n := newTestNet(t)
	a := n.addDomain("rutgers") // host domain
	b := n.addDomain("caltech") // client's local domain
	as := n.attachApp(a, "wave", defaultUsers())
	n.discoverAll()
	appID := as.AppID()

	// Client logs in at caltech (their "closest" server) and connects to
	// the rutgers-hosted application.
	sess, err := b.srv.Login(context.Background(), "alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	cap, err := b.srv.ConnectApp(context.Background(), sess, appID)
	if err != nil {
		t.Fatalf("remote connect: %v", err)
	}
	if cap.Priv.String() != "steer" {
		t.Errorf("remote privilege = %v", cap.Priv)
	}

	// Remote lock acquisition relays to the host server's lock table.
	granted, _, err := b.srv.LockOp(context.Background(), sess, true)
	if err != nil || !granted {
		t.Fatalf("remote lock: %v %v", granted, err)
	}
	if holder, held := a.srv.Locks().Holder(appID); !held || holder != sess.ClientID {
		t.Errorf("host lock table holder = %q, %v", holder, held)
	}
	if _, held := b.srv.Locks().Holder(appID); held {
		t.Error("lock state leaked to the remote server")
	}

	// Remote steering command.
	if _, err := b.srv.SubmitCommand(context.Background(), sess, "set_param", []wire.Param{
		{Key: "name", Value: "source_freq"}, {Key: "value", Value: "0.22"},
	}); err != nil {
		t.Fatalf("remote command: %v", err)
	}

	// Drive the application; the response must arrive at caltech.
	var resp *wire.Message
	waitFor(t, 5*time.Second, func() bool {
		as.RunPhase()
		for _, m := range drained(sess.Buffer) {
			if m.Kind == wire.KindResponse && m.Op == "set_param" {
				resp = m
			}
		}
		return resp != nil
	})
	if v := as.Runtime().Params().MustGet("source_freq"); v != 0.22 {
		t.Errorf("remote steering did not land: %v", v)
	}

	// Periodic updates cross the substrate too.
	var sawUpdate bool
	waitFor(t, 5*time.Second, func() bool {
		as.RunPhase()
		for _, m := range drained(sess.Buffer) {
			if m.Kind == wire.KindUpdate {
				sawUpdate = true
			}
		}
		return sawUpdate
	})

	// Release remotely.
	if _, _, err := b.srv.LockOp(context.Background(), sess, false); err != nil {
		t.Fatal(err)
	}
	if _, held := a.srv.Locks().Holder(appID); held {
		t.Error("remote release did not clear host lock")
	}
}

func TestRemoteSteeringPushMode(t *testing.T) { remoteSteeringTest(t) }

func TestDistributedLockMutualExclusion(t *testing.T) {
	n := newTestNet(t)
	a := n.addDomain("rutgers")
	b := n.addDomain("caltech")
	as := n.attachApp(a, "wave", defaultUsers())
	n.discoverAll()
	appID := as.AppID()

	// alice local at rutgers, alice2 remote at caltech contend.
	local, _ := a.srv.Login(context.Background(), "alice", "pw")
	remote, _ := b.srv.Login(context.Background(), "alice", "pw")
	if _, err := a.srv.ConnectApp(context.Background(), local, appID); err != nil {
		t.Fatal(err)
	}
	if _, err := b.srv.ConnectApp(context.Background(), remote, appID); err != nil {
		t.Fatal(err)
	}

	granted, _, _ := a.srv.LockOp(context.Background(), local, true)
	if !granted {
		t.Fatal("local lock denied")
	}
	granted, holder, err := b.srv.LockOp(context.Background(), remote, true)
	if err != nil {
		t.Fatal(err)
	}
	if granted {
		t.Fatal("lock granted to two clients across servers")
	}
	if holder != local.ClientID {
		t.Errorf("holder reported to remote = %q", holder)
	}
	// Remote steering without the lock is rejected AT THE HOST.
	_, err = b.srv.SubmitCommand(context.Background(), remote, "set_param", []wire.Param{
		{Key: "name", Value: "source_freq"}, {Key: "value", Value: "0.3"},
	})
	if err == nil {
		t.Error("remote steer without lock accepted")
	}
	// Hand over.
	a.srv.LockOp(context.Background(), local, false)
	if granted, _, _ := b.srv.LockOp(context.Background(), remote, true); !granted {
		t.Error("remote lock denied after local release")
	}
}

func TestCrossServerCollaboration(t *testing.T) {
	n := newTestNet(t)
	a := n.addDomain("rutgers")
	b := n.addDomain("caltech")
	as := n.attachApp(a, "wave", defaultUsers())
	n.discoverAll()
	appID := as.AppID()

	aliceA, _ := a.srv.Login(context.Background(), "alice", "pw")
	bobB, _ := b.srv.Login(context.Background(), "bob", "pw")
	if _, err := a.srv.ConnectApp(context.Background(), aliceA, appID); err != nil {
		t.Fatal(err)
	}
	if _, err := b.srv.ConnectApp(context.Background(), bobB, appID); err != nil {
		t.Fatal(err)
	}

	// Chat from the remote member must reach the host domain's member.
	if err := b.srv.Chat(context.Background(), bobB, "hello from caltech"); err != nil {
		t.Fatal(err)
	}
	var gotChat bool
	waitFor(t, 5*time.Second, func() bool {
		for _, m := range drained(aliceA.Buffer) {
			if m.Kind == wire.KindChat && m.Text == "hello from caltech" {
				gotChat = true
			}
		}
		return gotChat
	})

	// Chat from the host domain reaches the remote member via its relay.
	if err := a.srv.Chat(context.Background(), aliceA, "hello from rutgers"); err != nil {
		t.Fatal(err)
	}
	var gotBack bool
	waitFor(t, 5*time.Second, func() bool {
		for _, m := range drained(bobB.Buffer) {
			if m.Kind == wire.KindChat && m.Text == "hello from rutgers" {
				gotBack = true
			}
		}
		return gotBack
	})

	// Whiteboard strokes recorded at both servers for latecomers.
	if err := b.srv.Whiteboard(context.Background(), bobB, []byte("stroke")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return a.srv.Hub().Group(appID).WhiteboardLen() == 1
	})
}

// TestCrossServerViewShare: a view shared at one remote domain reaches
// the host's members (the forwarded-collab entry point) and a third
// domain's members (the relay entry point).
func TestCrossServerViewShare(t *testing.T) {
	n := newTestNet(t)
	a := n.addDomain("rutgers")
	b := n.addDomain("caltech")
	c := n.addDomain("utexas")
	as := n.attachApp(a, "wave", defaultUsers())
	n.discoverAll()
	appID := as.AppID()

	ctx := context.Background()
	aliceA, _ := a.srv.Login(ctx, "alice", "pw")
	bobB, _ := b.srv.Login(ctx, "bob", "pw")
	bobC, _ := c.srv.Login(ctx, "bob", "pw")
	for _, j := range []struct {
		d    *domain
		sess *session.Session
	}{{a, aliceA}, {b, bobB}, {c, bobC}} {
		if _, err := j.d.srv.ConnectApp(ctx, j.sess, appID); err != nil {
			t.Fatal(err)
		}
	}

	if err := b.srv.ShareView(ctx, bobB, []byte("view-1")); err != nil {
		t.Fatal(err)
	}
	for _, sess := range []*session.Session{aliceA, bobC} {
		var got bool
		waitFor(t, 5*time.Second, func() bool {
			for _, m := range drained(sess.Buffer) {
				if m.Kind == wire.KindViewShare && string(m.Data) == "view-1" {
					got = true
				}
			}
			return got
		})
	}
}

func TestControlChannelEvents(t *testing.T) {
	n := newTestNet(t)
	a := n.addDomain("rutgers")
	b := n.addDomain("caltech")
	n.discoverAll()

	// A logged-in client at caltech hears about an app joining rutgers.
	sess, _ := b.srv.Login(context.Background(), "alice", "pw")
	n.attachApp(a, "wave", defaultUsers())
	var heard bool
	waitFor(t, 5*time.Second, func() bool {
		for _, m := range drained(sess.Buffer) {
			if m.Kind == wire.KindEvent && m.Op == "app-registered" {
				heard = true
			}
		}
		return heard
	})
}

func TestRemoteUsers(t *testing.T) {
	n := newTestNet(t)
	a := n.addDomain("rutgers")
	b := n.addDomain("caltech")
	n.attachApp(b, "wave", defaultUsers())
	n.discoverAll()
	b.srv.Login(context.Background(), "bob", "pw")

	users, err := a.sub.RemoteUsers(context.Background(), "caltech")
	if err != nil {
		t.Fatal(err)
	}
	if len(users) != 1 || users[0] != "bob" {
		t.Errorf("remote users = %v", users)
	}
	if _, err := a.sub.RemoteUsers(context.Background(), "nosuch"); err == nil {
		t.Error("unknown peer accepted")
	}
}

func TestRemotePrivilegeDenied(t *testing.T) {
	n := newTestNet(t)
	a := n.addDomain("rutgers")
	b := n.addDomain("caltech")
	as := n.attachApp(a, "wave", defaultUsers())
	n.discoverAll()

	// eve has no ACL entry anywhere; connecting must fail with no access.
	b.srv.Auth().SetUserSecret("eve", "pw")
	sess, _ := b.srv.Login(context.Background(), "eve", "pw")
	if _, err := b.srv.ConnectApp(context.Background(), sess, as.AppID()); err == nil {
		t.Error("remote connect for unauthorized user succeeded")
	}
	// bob is monitor: connect fine, steer denied locally.
	bob, _ := b.srv.Login(context.Background(), "bob", "pw")
	if _, err := b.srv.ConnectApp(context.Background(), bob, as.AppID()); err != nil {
		t.Fatalf("bob connect: %v", err)
	}
	if _, err := b.srv.SubmitCommand(context.Background(), bob, "set_param", []wire.Param{
		{Key: "name", Value: "source_freq"}, {Key: "value", Value: "0.4"},
	}); err == nil {
		t.Error("monitor steer via substrate accepted")
	}
}

// TestRemoteRefusalsKeepTheirCode steers from caltech's portal into a
// rutgers-hosted application. The host's refusals must reach the client
// with the code the host gives them, not as 500 internal: 409 lock_held
// while a rutgers client holds the lock, and 403 forbidden once the
// host's ACL stops granting steer to a client that connected with it.
func TestRemoteRefusalsKeepTheirCode(t *testing.T) {
	n := newTestNet(t)
	a := n.addDomain("rutgers")
	b := n.addDomain("caltech")
	as := n.attachApp(a, "wave", defaultUsers())
	n.discoverAll()
	appID := as.AppID()
	ctx := context.Background()

	holder, _ := a.srv.Login(ctx, "alice", "pw")
	if _, err := a.srv.ConnectApp(ctx, holder, appID); err != nil {
		t.Fatal(err)
	}
	if granted, _, err := a.srv.LockOp(ctx, holder, true); err != nil || !granted {
		t.Fatalf("host lock: %v %v", granted, err)
	}

	ts := httptest.NewServer(b.srv.HTTPHandler())
	defer ts.Close()
	c := portal.New(ts.URL)
	if err := c.Login(ctx, "alice", "pw"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ConnectApp(ctx, appID); err != nil {
		t.Fatal(err)
	}
	wantRefusal := func(err error, status int, code server.ErrCode) {
		t.Helper()
		var ae *portal.APIError
		if !errors.As(err, &ae) || ae.Status != status || ae.Code != string(code) {
			t.Errorf("remote refusal = %v, want %d %s", err, status, code)
		}
	}
	_, err := c.SetParam(ctx, "source_freq", 0.3)
	wantRefusal(err, http.StatusConflict, server.CodeLockHeld)

	if _, _, err := a.srv.LockOp(ctx, holder, false); err != nil {
		t.Fatal(err)
	}
	if granted, _, err := c.AcquireLock(ctx); err != nil || !granted {
		t.Fatalf("remote lock: %v %v", granted, err)
	}
	acl, ok := a.srv.Auth().ACL(appID)
	if !ok {
		t.Fatal("host has no ACL for the application")
	}
	acl.Grant("alice", auth.Monitor)
	_, err = c.SetParam(ctx, "source_freq", 0.3)
	wantRefusal(err, http.StatusForbidden, server.CodeForbidden)
}

// TestLastMemberLeaveStopsUpdates: once a domain's last member
// disconnects, the host relays no further application updates there.
func TestLastMemberLeaveStopsUpdates(t *testing.T) {
	n := newTestNet(t)
	a := n.addDomain("rutgers")
	b := n.addDomain("caltech")
	as := n.attachApp(a, "wave", defaultUsers())
	n.discoverAll()
	appID := as.AppID()

	sess, _ := b.srv.Login(context.Background(), "alice", "pw")
	if _, err := b.srv.ConnectApp(context.Background(), sess, appID); err != nil {
		t.Fatal(err)
	}
	// Everything the host relays to caltech lands in caltech's local
	// fan-out; an observer joined there by hand (no join op, so the host
	// does not count it) sees it all.
	var mu sync.Mutex
	var seen []*wire.Message
	b.srv.Hub().Group(appID).Join("observer", func(m *wire.Message) {
		mu.Lock()
		seen = append(seen, m)
		mu.Unlock()
	})
	updates := func() int {
		mu.Lock()
		defer mu.Unlock()
		k := 0
		for _, m := range seen {
			if m.Kind == wire.KindUpdate {
				k++
			}
		}
		return k
	}
	// Receive at least one update, then the last member leaves.
	waitFor(t, 5*time.Second, func() bool {
		as.RunPhase()
		return updates() > 0
	})
	b.srv.DisconnectApp(context.Background(), sess)
	// Each phase's update is handled before the next phase's drained
	// marker, so after one more phase nothing sent before the leave is
	// still unqueued at the host.
	as.RunPhase()
	host, _ := a.srv.Hub().Lookup(appID)
	aliceA, _ := a.srv.Login(context.Background(), "alice", "pw")
	if _, err := a.srv.ConnectApp(context.Background(), aliceA, appID); err != nil {
		t.Fatal(err)
	}
	fence := func(text string) {
		t.Helper()
		if err := a.srv.Chat(context.Background(), aliceA, text); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 5*time.Second, func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(seen) > 0 && seen[len(seen)-1].Text == text
		})
	}
	fence("before")
	before := updates()
	for i := 0; i < 10; i++ {
		as.RunPhase()
	}
	as.RunPhase() // the tenth update is queued before this returns
	fence("after")
	if got := updates() - before; got != 0 {
		t.Errorf("%d updates reached caltech after its last member left", got)
	}
	if host.Listening("caltech") {
		t.Error("host still counts caltech as listening")
	}
}

// TestFederationChaos drives a three-domain federation with concurrent
// clients performing random operations while applications pump phases.
// It asserts liveness (no deadlock within the deadline) and the global
// mutual-exclusion invariant: every successful mutating command was
// issued by the lock holder of the moment, so the two contended counters
// never interleave within one client's read-modify-write. Midway through
// the run one domain is killed abruptly and later restarted: the
// survivors must detect the death, keep serving, and re-federate with the
// reborn domain.
func TestFederationChaos(t *testing.T) {
	n := newTestNet(t)
	domains := []*domain{
		n.addDomain("d0"),
		n.addDomain("d1"),
		n.addDomain("d2"),
	}
	apps := []*appproto.Session{
		n.attachApp(domains[0], "chaos-a", defaultUsers()),
		n.attachApp(domains[1], "chaos-b", defaultUsers()),
	}
	n.discoverAll()

	// Applications pump phases continuously.
	pumpCtx, stopPump := context.WithCancel(context.Background())
	defer stopPump()
	for _, as := range apps {
		as := as
		go func() {
			for pumpCtx.Err() == nil {
				if _, err := as.RunPhase(); err != nil {
					return
				}
			}
		}()
	}

	const clients = 6
	var wg sync.WaitGroup
	var steers atomic.Int64
	deadline := time.Now().Add(1500 * time.Millisecond)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(c)))
			d := domains[c%2] // only the surviving domains serve chaos clients
			sess, err := d.srv.Login(context.Background(), "alice", "pw")
			if err != nil {
				t.Errorf("client %d login: %v", c, err)
				return
			}
			appID := apps[c%len(apps)].AppID()
			if _, err := d.srv.ConnectApp(context.Background(), sess, appID); err != nil {
				t.Errorf("client %d connect: %v", c, err)
				return
			}
			for time.Now().Before(deadline) {
				switch r.Intn(6) {
				case 0: // try to steer under the lock
					granted, _, err := d.srv.LockOp(context.Background(), sess, true)
					if err != nil || !granted {
						continue
					}
					if _, err := d.srv.SubmitCommand(context.Background(), sess, "set_param", []wire.Param{
						{Key: "name", Value: "source_amp"},
						{Key: "value", Value: "1.5"},
					}); err == nil {
						steers.Add(1)
					}
					d.srv.LockOp(context.Background(), sess, false)
				case 1:
					d.srv.SubmitCommand(context.Background(), sess, "status", nil)
				case 2:
					d.srv.Chat(context.Background(), sess, "chaos")
				case 3:
					sess.Buffer.DrainEntries(0)
				case 4:
					d.srv.Apps(context.Background(), "alice")
				case 5:
					d.srv.SubmitCommand(context.Background(), sess, "get_param", []wire.Param{{Key: "name", Value: "source_amp"}})
				}
			}
			d.srv.Logout(context.Background(), sess)
		}(c)
	}
	// Mid-run: kill d2 abruptly (no offer withdrawal — close the wire
	// first) while the chaos clients keep hammering d0 and d1.
	time.Sleep(400 * time.Millisecond)
	d2 := domains[2]
	d2.orb.Close()
	d2.srv.Close()
	d2.sub.Close()
	// Survivors detect the death: drive the failure detector until both
	// either opened the breaker or pruned the peer via discovery.
	sawDown := func(d *domain) bool {
		for _, ph := range d.sub.PeerHealth() {
			if ph.Peer == "d2" && (ph.State == "down" || ph.State == "probing") {
				return true
			}
		}
		for _, p := range d.sub.Peers() {
			if p == "d2" {
				return false
			}
		}
		return true // pruned entirely: also a detected death
	}
	waitFor(t, 10*time.Second, func() bool {
		domains[0].sub.CheckPeersNow()
		domains[1].sub.CheckPeersNow()
		return sawDown(domains[0]) && sawDown(domains[1])
	})

	// Restart d2 under the same name and re-federate.
	d2b := n.addDomain("d2")
	n.discoverAll()

	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(30 * time.Second):
		t.Fatal("chaos clients deadlocked")
	}
	if steers.Load() == 0 {
		t.Error("no successful steering under contention")
	}
	// All locks released after every client logged out.
	for _, as := range apps {
		if holder, held := serverOf(domains, as.AppID()).Locks().Holder(as.AppID()); held {
			t.Errorf("lock on %s leaked to %s", as.AppID(), holder)
		}
	}

	// The reborn d2 participates end-to-end: a client there steers the
	// d0-hosted application through the re-formed federation.
	sess, err := d2b.srv.Login(context.Background(), "alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d2b.srv.ConnectApp(context.Background(), sess, apps[0].AppID()); err != nil {
		t.Fatalf("connect via reborn domain: %v", err)
	}
	waitFor(t, 10*time.Second, func() bool {
		granted, _, err := d2b.srv.LockOp(context.Background(), sess, true)
		return err == nil && granted
	})
	if _, err := d2b.srv.SubmitCommand(context.Background(), sess, "set_param", []wire.Param{
		{Key: "name", Value: "source_amp"},
		{Key: "value", Value: "2.0"},
	}); err != nil {
		t.Errorf("steer via reborn domain: %v", err)
	}
	d2b.srv.LockOp(context.Background(), sess, false)
	d2b.srv.Logout(context.Background(), sess)
}

func serverOf(domains []*domain, appID string) *server.Server {
	for _, d := range domains {
		if d.srv.Name() == server.ServerOfApp(appID) {
			return d.srv
		}
	}
	return nil
}

// TestPeerFailureHandledCleanly kills the host domain abruptly and checks
// that the remote server degrades gracefully: remote operations fail with
// errors (never hang or panic), the failure detector opens the breaker so
// later operations fail fast with ErrPeerDown, and the dead peer's
// applications stay listed — marked unavailable — from the cache.
func TestPeerFailureHandledCleanly(t *testing.T) {
	n := newTestNet(t)
	a := n.addDomain("rutgers")
	b := n.addDomain("caltech")
	as := n.attachApp(a, "wave", defaultUsers())
	n.discoverAll()
	appID := as.AppID()

	sess, _ := b.srv.Login(context.Background(), "alice", "pw")
	if _, err := b.srv.ConnectApp(context.Background(), sess, appID); err != nil {
		t.Fatal(err)
	}
	// Populate b's remote-app cache while the host is alive.
	if apps := b.srv.Apps(context.Background(), "alice"); len(apps) != 1 || apps[0].Unavailable {
		t.Fatalf("pre-failure apps = %v", apps)
	}

	// Abrupt death: close the host's ORB and server without withdrawing.
	as.Close()
	a.sub.Close()
	a.orb.Close()
	a.srv.Close()
	b.orb.DropConn(a.orb.Addr())

	// Remote operations fail with errors, promptly.
	done := make(chan error, 1)
	go func() {
		_, err := b.srv.SubmitCommand(context.Background(), sess, "status", nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("command to dead peer succeeded")
		}
	case <-time.After(15 * time.Second):
		t.Fatal("command to dead peer hung")
	}
	if _, _, err := b.srv.LockOp(context.Background(), sess, true); err == nil {
		t.Error("lock relay to dead peer succeeded")
	}

	// Drive the failure detector to the down threshold; dials to the
	// closed listener fail immediately, so this is fast and deterministic.
	for i := 0; i < DefaultDownAfter; i++ {
		b.sub.CheckPeersNow()
	}
	if st := stateOf(b.sub.peers, "rutgers"); st != "down" {
		t.Fatalf("peer state after %d failed probes = %v", DefaultDownAfter, st)
	}

	// Breaker open: operations fail fast with the typed error, well under
	// the RPC timeout.
	start := time.Now()
	_, err := b.srv.SubmitCommand(context.Background(), sess, "status", nil)
	if !errors.Is(err, ErrPeerDown) {
		t.Errorf("command after breaker open: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("breaker-open command took %v, want fast-fail", elapsed)
	}

	// The dead peer's applications are still listed, marked unavailable.
	apps := b.srv.Apps(context.Background(), "alice")
	if len(apps) != 1 || !apps[0].Unavailable || apps[0].ID != appID {
		t.Errorf("apps after peer death = %+v", apps)
	}

	// Stats surface the breaker state.
	ph := b.sub.PeerHealth()
	if len(ph) != 1 || ph[0].Peer != "rutgers" || ph[0].State != "down" || ph[0].BreakerOpens == 0 {
		t.Errorf("peer health = %+v", ph)
	}
}

// TestResourcePolicyThrottlesPeer exercises §6.3's access policies: a
// peer exceeding its request-rate budget is denied at the host with a
// RESOURCE_POLICY error, and its consumption is accounted.
func TestResourcePolicyThrottlesPeer(t *testing.T) {
	n := newTestNet(t)
	a := n.addDomain("rutgers")
	b := n.addDomain("caltech")
	as := n.attachApp(a, "wave", defaultUsers())
	n.discoverAll()
	appID := as.AppID()

	// rutgers (the host) restricts caltech to 2 requests with no refill.
	a.sub.Accounting().SetPolicy("caltech", policy.Policy{RequestsPerSec: 0.0001, RequestBurst: 2})

	sess, _ := b.srv.Login(context.Background(), "alice", "pw")
	if _, err := b.srv.ConnectApp(context.Background(), sess, appID); err != nil {
		t.Fatal(err)
	}
	granted, _, err := b.srv.LockOp(context.Background(), sess, true)
	if err != nil || !granted {
		t.Fatalf("first lock consumed budget unexpectedly: %v %v", granted, err)
	}
	if _, _, err := b.srv.LockOp(context.Background(), sess, false); err != nil {
		t.Fatal(err)
	}
	// Third relayed request exceeds the burst of 2.
	if _, _, err := b.srv.LockOp(context.Background(), sess, true); err == nil {
		t.Fatal("request over policy budget was admitted")
	}
	usage := a.sub.Accounting().Usage("caltech")
	if usage.Requests != 2 || usage.Denied == 0 {
		t.Errorf("usage = %+v", usage)
	}
}

// TestCollabMeterExemptionValidated pins the membership exemption of the
// collab relay path: genuine payload-free membership bookkeeping bypasses
// the access-policy meter even with the peer's budget exhausted, while a
// message that merely tags bulk data with a membership kind is metered
// and denied.
func TestCollabMeterExemptionValidated(t *testing.T) {
	n := newTestNet(t)
	a := n.addDomain("rutgers")
	b := n.addDomain("caltech")
	as := n.attachApp(a, "wave", defaultUsers())
	n.discoverAll()
	appID := as.AppID()

	// A byte budget too small for any bulk payload.
	a.sub.Accounting().SetPolicy("caltech", policy.Policy{BytesPerSec: 1, ByteBurst: 16})

	proxy := orb.ObjRef{Addr: a.orb.Addr(), Key: ProxyKey(appID)}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	join := &wire.Message{Kind: wire.KindJoin, App: appID, Client: "caltech/c1"}
	for i := 0; i < 3; i++ {
		if err := b.orb.Invoke(ctx, proxy, "collab",
			collabReq{Msg: join, From: "caltech"}, nil); err != nil {
			t.Fatalf("genuine membership message hit the meter: %v", err)
		}
	}

	forged := &wire.Message{Kind: wire.KindJoin, App: appID, Client: "caltech/c1",
		Data: make([]byte, 4096)}
	err := b.orb.Invoke(ctx, proxy, "collab", collabReq{Msg: forged, From: "caltech"}, nil)
	if err == nil {
		t.Fatal("bulk data tagged as a join bypassed the meter")
	}
	var re *orb.RemoteError
	if !errors.As(err, &re) || re.Code != CodePolicy {
		t.Errorf("forged join error = %v, want code %s", err, CodePolicy)
	}
}

// TestDirCacheSingleFlightAndStates walks one cache entry through every
// state deterministically: single-flight miss dedup, fresh hit,
// unavailable-marked serve, event invalidation forcing a refetch, failed
// fetch degrading to the last good listing, and stale
// serve-while-revalidate past the TTL.
func TestDirCacheSingleFlightAndStates(t *testing.T) {
	c := newDirCache("unit", 50*time.Millisecond)
	apps := []server.AppInfo{{ID: "unit#1"}}

	// Miss: the first caller leads the flight, the second joins it.
	p1 := c.plan("peer", "alice", false)
	if p1.state != dirFetch || !p1.lead {
		t.Fatalf("first plan = %+v, want fetch leader", p1)
	}
	p2 := c.plan("peer", "alice", false)
	if p2.state != dirJoin || p2.lead {
		t.Fatalf("second plan = %+v, want join follower", p2)
	}
	resolved := make(chan []server.AppInfo, 1)
	go func() {
		<-p2.flight
		got, err := c.resolve("peer", "alice")
		if err != nil {
			t.Errorf("follower resolve: %v", err)
		}
		resolved <- got
	}()
	c.complete("peer", "alice", apps, nil)
	if got := <-resolved; len(got) != 1 || got[0].ID != "unit#1" {
		t.Fatalf("follower resolved %+v", got)
	}

	// Fresh hit within the TTL.
	if p := c.plan("peer", "alice", false); p.state != dirFresh || len(p.apps) != 1 {
		t.Fatalf("fresh plan = %+v", p)
	}
	// Breaker open: the same data, every application marked unavailable.
	if p := c.plan("peer", "alice", true); p.state != dirUnavailable || !p.apps[0].Unavailable {
		t.Fatalf("down plan = %+v", p)
	}
	// An event invalidation forces a synchronous coherent refetch.
	c.invalidatePeer("peer", true)
	p3 := c.plan("peer", "alice", false)
	if p3.state != dirFetch || !p3.lead {
		t.Fatalf("post-invalidation plan = %+v, want fetch leader", p3)
	}
	// A failed refetch keeps the old data as the degraded fallback.
	c.complete("peer", "alice", nil, errors.New("boom"))
	if got, err := c.resolve("peer", "alice"); err == nil || len(got) != 1 || !got[0].Unavailable {
		t.Fatalf("failed-fetch resolve = %+v, %v", got, err)
	}
	st := c.stats()
	if st.Hits != 1 || st.Misses != 3 || st.Coalesced != 1 ||
		st.UnavailableServes != 1 || st.EventInvalidations != 1 {
		t.Errorf("stats = %+v", st)
	}

	// Past the TTL an entry is served stale while one leader revalidates.
	c.complete("peer", "alice", apps, nil)
	time.Sleep(60 * time.Millisecond)
	p4 := c.plan("peer", "alice", false)
	if p4.state != dirStale || !p4.lead || len(p4.apps) != 1 {
		t.Fatalf("expired plan = %+v, want stale leader", p4)
	}
	if p := c.plan("peer", "alice", false); p.state != dirStale || p.lead {
		t.Fatalf("second expired plan = %+v, want stale non-leader", p)
	}
	c.complete("peer", "alice", apps, nil)
	if p := c.plan("peer", "alice", false); p.state != dirFresh {
		t.Fatalf("revalidated plan = %+v, want fresh", p)
	}
}

// TestDirectoryChaosConcurrentListings hammers the listing fan-out from
// several goroutines while the application population churns (event
// invalidations land mid-round) and one peer dies abruptly and is reborn
// under the same name. Run with -race: the invariant is liveness (every
// listing completes), degraded marking while the peer is down, and
// coherent recovery after rebirth.
func TestDirectoryChaosConcurrentListings(t *testing.T) {
	n := newTestNet(t)
	d0 := n.addDomain("d0")
	d1 := n.addDomain("d1")
	d2 := n.addDomain("d2")
	n.attachApp(d1, "stable-1", defaultUsers())
	n.attachApp(d2, "stable-2", defaultUsers())
	n.discoverAll()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var listings atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				d0.sub.RemoteApps(ctx, "alice")
				if i%4 == g {
					d0.sub.RemoteUsers(ctx, "")
				}
				cancel()
				listings.Add(1)
			}
		}(g)
	}
	// Churn applications at d1 so app-registered/app-closed control events
	// invalidate d0's cache while the listing goroutines are mid-round.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rt, err := app.NewRuntime(app.Config{
				Name: "churn", Kernel: app.NewSeismic1D(16), ComputeSteps: 1,
				Users: defaultUsers(),
			})
			if err != nil {
				t.Error(err)
				return
			}
			as, err := appproto.Dial(context.Background(), d1.srv.Daemon().Addr(), rt)
			if err != nil {
				t.Error(err)
				return
			}
			deadline := time.Now().Add(2 * time.Second)
			for len(d1.srv.LocalAppIDs()) < 2 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			as.Close()
			deadline = time.Now().Add(2 * time.Second)
			for len(d1.srv.LocalAppIDs()) > 1 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
		}
	}()

	// Let the chaos build, then kill d2 abruptly — wire first, so its
	// trader offer lingers and survivors keep it as a known-but-dead peer.
	time.Sleep(300 * time.Millisecond)
	d2.orb.Close()
	d2.srv.Close()
	d2.sub.Close()
	waitFor(t, 10*time.Second, func() bool {
		d0.sub.CheckPeersNow()
		for _, ph := range d0.sub.PeerHealth() {
			if ph.Peer == "d2" && (ph.State == "down" || ph.State == "probing") {
				return true
			}
		}
		return false
	})
	// Listings keep completing, serving d2's last good listing marked
	// unavailable instead of hanging or silently dropping it.
	waitFor(t, 10*time.Second, func() bool {
		for _, a := range d0.sub.RemoteApps(context.Background(), "alice") {
			if server.ServerOfApp(a.ID) == "d2" && a.Unavailable {
				return true
			}
		}
		return false
	})

	// A reborn d2 re-federates under the same name; its new application
	// becomes visible and available through the invalidated cache.
	d2b := n.addDomain("d2")
	reborn := n.attachApp(d2b, "reborn", defaultUsers())
	n.discoverAll()
	waitFor(t, 10*time.Second, func() bool {
		d0.sub.CheckPeersNow()
		for _, a := range d0.sub.RemoteApps(context.Background(), "alice") {
			if a.ID == reborn.AppID() && !a.Unavailable {
				return true
			}
		}
		return false
	})

	close(stop)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("directory chaos goroutines deadlocked")
	}
	st := d0.sub.DirectoryStats()
	if listings.Load() == 0 || st.Hits == 0 || st.Misses == 0 {
		t.Errorf("chaos exercised too little: listings=%d stats=%+v", listings.Load(), st)
	}
	if st.EventInvalidations == 0 {
		t.Errorf("app churn never invalidated the cache: %+v", st)
	}
	if st.FanoutRounds == 0 || st.FanoutCalls < st.FanoutRounds {
		t.Errorf("fan-out counters implausible: %+v", st)
	}
}
