package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"discover/internal/app"
	"discover/internal/appproto"
	"discover/internal/auth"
	"discover/internal/clock"
	"discover/internal/core"
	"discover/internal/experiments"
	"discover/internal/netsim"
	"discover/internal/orb"
	"discover/internal/policy"
	"discover/internal/portal"
	"discover/internal/server"
	"discover/internal/session"
	"discover/internal/wire"
)

// domain is one domain of a test federation.
type domain = experiments.Domain

// newFederation boots one domain per name through the one builder, each
// at its own netsim site with WAN links of rtt (0 = unshaped) and with
// users alice and bob, and runs one discovery round. Every domain and the
// trader run on a manual clock that no test advances: discovery runs when
// a test calls discoverAll, and heartbeats when it calls CheckPeersNow.
func newFederation(t *testing.T, rtt time.Duration, names ...string) *experiments.Federation {
	t.Helper()
	specs := make([]experiments.Spec, len(names))
	for i, name := range names {
		specs[i] = experiments.Place(name, netsim.Site(name))
		specs[i].Config.Users = map[string]string{"alice": "pw", "bob": "pw"}
		specs[i].Config.RecordUpdates = true
	}
	topo := func(tp *netsim.Topology) { tp.SetDefaultRTT(rtt) }
	f, err := experiments.NewFederation(topo, clock.NewManual(), 0, specs...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// discoverAll runs one discovery round on every domain.
func discoverAll(t *testing.T, f *experiments.Federation) {
	t.Helper()
	for _, d := range f.Domains {
		if err := d.Substrate.DiscoverPeers(); err != nil {
			t.Fatal(err)
		}
	}
}

// waitFor polls a predicate until it holds.
var waitFor = core.WaitFor

// attachApp connects a synthetic application to a domain's server.
func attachApp(t *testing.T, d *domain, name string, users []app.UserGrant) *appproto.Session {
	t.Helper()
	rt, err := app.NewRuntime(app.Config{
		Name: name, Kernel: app.NewSeismic1D(64), ComputeSteps: 2, Users: users,
	})
	if err != nil {
		t.Fatal(err)
	}
	as, err := appproto.Dial(context.Background(), d.Server.Daemon().Addr(), rt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { as.Close() })
	deadline := time.Now().Add(2 * time.Second)
	for len(d.Server.LocalAppIDs()) == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
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

func TestDiscoveryViaTrader(t *testing.T) {
	n := newFederation(t, 0, "rutgers", "caltech", "utexas")
	a, b, c := n.Domains[0], n.Domains[1], n.Domains[2]
	discoverAll(t, n)

	for _, d := range []*domain{a, b, c} {
		peers := d.Substrate.Peers()
		if len(peers) != 2 {
			t.Errorf("%s sees peers %v", d.Server.Name(), peers)
		}
		for _, p := range peers {
			if p == d.Server.Name() {
				t.Errorf("%s discovered itself", p)
			}
		}
	}
}

func TestSubstrateCloseWithdrawsOffer(t *testing.T) {
	n := newFederation(t, 0, "rutgers", "caltech")
	a, b := n.Domains[0], n.Domains[1]
	discoverAll(t, n)
	if len(a.Substrate.Peers()) != 1 {
		t.Fatal("setup failed")
	}
	b.Substrate.Close()
	// One missed discovery round keeps a known peer (marked suspect) to
	// ride out a momentary trader-offer lapse; the second drops it.
	if err := a.Substrate.DiscoverPeers(); err != nil {
		t.Fatal(err)
	}
	if len(a.Substrate.Peers()) != 1 {
		t.Errorf("peer dropped on first missed round: %v", a.Substrate.Peers())
	}
	if err := a.Substrate.DiscoverPeers(); err != nil {
		t.Fatal(err)
	}
	if len(a.Substrate.Peers()) != 0 {
		t.Errorf("withdrawn peer still discovered: %v", a.Substrate.Peers())
	}
}

func TestGlobalAppListMergesDomains(t *testing.T) {
	n := newFederation(t, 0, "rutgers", "caltech")
	a, b := n.Domains[0], n.Domains[1]
	attachApp(t, a, "wave-a", defaultUsers())
	attachApp(t, b, "wave-b", defaultUsers())

	apps := a.Server.Apps(context.Background(), "alice")
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
	if apps := a.Server.Apps(context.Background(), "mallory"); len(apps) != 0 {
		t.Errorf("mallory sees %v", apps)
	}
}

// TestProxyServantFollowsRegistration checks that a peer finds an
// application's CorbaProxy from its id alone: the id names the host, the
// peer table gives the host's address, and the servant answers there
// while the application is registered and is gone once it closes.
func TestProxyServantFollowsRegistration(t *testing.T) {
	n := newFederation(t, 0, "rutgers", "caltech")
	a, b := n.Domains[0], n.Domains[1]
	as := attachApp(t, a, "wave", defaultUsers())
	appID := as.AppID()

	ref, err := b.Substrate.ProxyRefFor(appID)
	if err != nil {
		t.Fatal(err)
	}
	if ref != a.ORB.Ref(core.ProxyKey(appID)) {
		t.Fatalf("proxyRef = %v, want %v", ref, a.ORB.Ref(core.ProxyKey(appID)))
	}
	pull := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		return b.ORB.Invoke(ctx, ref, "collabSync", core.CollabSyncReq{From: "caltech"}, &core.CollabSyncResp{})
	}
	if err := pull(); err != nil {
		t.Fatalf("CorbaProxy at %v: %v", ref, err)
	}
	as.Close()
	waitFor(t, 2*time.Second, func() bool { return orb.IsRemote(pull(), orb.CodeNoServant) })
}

// TestRemoteSteeringPushMode exercises the full remote path.
func TestRemoteSteeringPushMode(t *testing.T) {
	n := newFederation(t, 0, "rutgers", "caltech")
	a, b := n.Domains[0], n.Domains[1]
	as := attachApp(t, a, "wave", defaultUsers())
	appID := as.AppID()

	// Client logs in at caltech (their "closest" server) and connects to
	// the rutgers-hosted application.
	sess, err := b.Server.Login(context.Background(), "alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	cap, err := b.Server.ConnectApp(context.Background(), sess, appID)
	if err != nil {
		t.Fatalf("remote connect: %v", err)
	}
	if cap.Priv.String() != "steer" {
		t.Errorf("remote privilege = %v", cap.Priv)
	}

	// Remote lock acquisition relays to the host server's lock table.
	granted, _, err := b.Server.LockOp(context.Background(), sess, true)
	if err != nil || !granted {
		t.Fatalf("remote lock: %v %v", granted, err)
	}
	if holder, held := a.Server.Locks().Holder(appID); !held || holder != sess.ClientID {
		t.Errorf("host lock table holder = %q, %v", holder, held)
	}
	if _, held := b.Server.Locks().Holder(appID); held {
		t.Error("lock state leaked to the remote server")
	}

	// Remote steering command.
	if _, err := b.Server.SubmitCommand(context.Background(), sess, "set_param", []wire.Param{
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
	if _, _, err := b.Server.LockOp(context.Background(), sess, false); err != nil {
		t.Fatal(err)
	}
	if _, held := a.Server.Locks().Holder(appID); held {
		t.Error("remote release did not clear host lock")
	}
}

func TestDistributedLockMutualExclusion(t *testing.T) {
	n := newFederation(t, 0, "rutgers", "caltech")
	a, b := n.Domains[0], n.Domains[1]
	as := attachApp(t, a, "wave", defaultUsers())
	appID := as.AppID()

	// alice local at rutgers, alice2 remote at caltech contend.
	local, _ := a.Server.Login(context.Background(), "alice", "pw")
	remote, _ := b.Server.Login(context.Background(), "alice", "pw")
	if _, err := a.Server.ConnectApp(context.Background(), local, appID); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Server.ConnectApp(context.Background(), remote, appID); err != nil {
		t.Fatal(err)
	}

	granted, _, _ := a.Server.LockOp(context.Background(), local, true)
	if !granted {
		t.Fatal("local lock denied")
	}
	granted, holder, err := b.Server.LockOp(context.Background(), remote, true)
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
	_, err = b.Server.SubmitCommand(context.Background(), remote, "set_param", []wire.Param{
		{Key: "name", Value: "source_freq"}, {Key: "value", Value: "0.3"},
	})
	if err == nil {
		t.Error("remote steer without lock accepted")
	}
	// Hand over.
	a.Server.LockOp(context.Background(), local, false)
	if granted, _, _ := b.Server.LockOp(context.Background(), remote, true); !granted {
		t.Error("remote lock denied after local release")
	}
}

func TestCrossServerCollaboration(t *testing.T) {
	n := newFederation(t, 0, "rutgers", "caltech")
	a, b := n.Domains[0], n.Domains[1]
	as := attachApp(t, a, "wave", defaultUsers())
	appID := as.AppID()

	aliceA, _ := a.Server.Login(context.Background(), "alice", "pw")
	bobB, _ := b.Server.Login(context.Background(), "bob", "pw")
	if _, err := a.Server.ConnectApp(context.Background(), aliceA, appID); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Server.ConnectApp(context.Background(), bobB, appID); err != nil {
		t.Fatal(err)
	}

	// Chat from the remote member must reach the host domain's member.
	if err := b.Server.Chat(context.Background(), bobB, "hello from caltech"); err != nil {
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
	if err := a.Server.Chat(context.Background(), aliceA, "hello from rutgers"); err != nil {
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
	if err := b.Server.Whiteboard(context.Background(), bobB, []byte("stroke")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return a.Server.Hub().Group(appID).WhiteboardLen() == 1
	})
}

// TestCrossServerViewShare: a view shared at one remote domain reaches
// the host's members (the forwarded-collab entry point) and a third
// domain's members (the relay entry point).
func TestCrossServerViewShare(t *testing.T) {
	n := newFederation(t, 0, "rutgers", "caltech", "utexas")
	a, b, c := n.Domains[0], n.Domains[1], n.Domains[2]
	as := attachApp(t, a, "wave", defaultUsers())
	appID := as.AppID()

	ctx := context.Background()
	aliceA, _ := a.Server.Login(ctx, "alice", "pw")
	bobB, _ := b.Server.Login(ctx, "bob", "pw")
	bobC, _ := c.Server.Login(ctx, "bob", "pw")
	for _, j := range []struct {
		d    *domain
		sess *session.Session
	}{{a, aliceA}, {b, bobB}, {c, bobC}} {
		if _, err := j.d.Server.ConnectApp(ctx, j.sess, appID); err != nil {
			t.Fatal(err)
		}
	}

	if err := b.Server.ShareView(ctx, bobB, []byte("view-1")); err != nil {
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
	n := newFederation(t, 0, "rutgers", "caltech")
	a, b := n.Domains[0], n.Domains[1]
	discoverAll(t, n)

	// A logged-in client at caltech hears about an app joining rutgers.
	sess, _ := b.Server.Login(context.Background(), "alice", "pw")
	attachApp(t, a, "wave", defaultUsers())
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
	n := newFederation(t, 0, "rutgers", "caltech")
	a, b := n.Domains[0], n.Domains[1]
	attachApp(t, b, "wave", defaultUsers())
	b.Server.Login(context.Background(), "bob", "pw")

	users, err := a.Substrate.RemoteUsers(context.Background(), "caltech")
	if err != nil {
		t.Fatal(err)
	}
	if len(users) != 1 || users[0] != "bob" {
		t.Errorf("remote users = %v", users)
	}
	if _, err := a.Substrate.RemoteUsers(context.Background(), "nosuch"); err == nil {
		t.Error("unknown peer accepted")
	}
}

func TestRemotePrivilegeDenied(t *testing.T) {
	n := newFederation(t, 0, "rutgers", "caltech")
	a, b := n.Domains[0], n.Domains[1]
	as := attachApp(t, a, "wave", defaultUsers())

	// eve has no ACL entry anywhere; connecting must fail with no access.
	b.Server.Auth().SetUserSecret("eve", "pw")
	sess, _ := b.Server.Login(context.Background(), "eve", "pw")
	if _, err := b.Server.ConnectApp(context.Background(), sess, as.AppID()); err == nil {
		t.Error("remote connect for unauthorized user succeeded")
	}
	// bob is monitor: connect fine, steer denied locally.
	bob, _ := b.Server.Login(context.Background(), "bob", "pw")
	if _, err := b.Server.ConnectApp(context.Background(), bob, as.AppID()); err != nil {
		t.Fatalf("bob connect: %v", err)
	}
	if _, err := b.Server.SubmitCommand(context.Background(), bob, "set_param", []wire.Param{
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
	n := newFederation(t, 0, "rutgers", "caltech")
	a, b := n.Domains[0], n.Domains[1]
	as := attachApp(t, a, "wave", defaultUsers())
	appID := as.AppID()
	ctx := context.Background()

	holder, _ := a.Server.Login(ctx, "alice", "pw")
	if _, err := a.Server.ConnectApp(ctx, holder, appID); err != nil {
		t.Fatal(err)
	}
	if granted, _, err := a.Server.LockOp(ctx, holder, true); err != nil || !granted {
		t.Fatalf("host lock: %v %v", granted, err)
	}

	ts := httptest.NewServer(b.Server.HTTPHandler())
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

	if _, _, err := a.Server.LockOp(ctx, holder, false); err != nil {
		t.Fatal(err)
	}
	if granted, _, err := c.AcquireLock(ctx); err != nil || !granted {
		t.Fatalf("remote lock: %v %v", granted, err)
	}
	acl, ok := a.Server.Auth().ACL(appID)
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
	n := newFederation(t, 0, "rutgers", "caltech")
	a, b := n.Domains[0], n.Domains[1]
	as := attachApp(t, a, "wave", defaultUsers())
	appID := as.AppID()

	sess, _ := b.Server.Login(context.Background(), "alice", "pw")
	if _, err := b.Server.ConnectApp(context.Background(), sess, appID); err != nil {
		t.Fatal(err)
	}
	// Everything the host relays to caltech lands in caltech's local
	// fan-out; an observer joined there by hand (no join op, so the host
	// does not count it) sees it all.
	var mu sync.Mutex
	var seen []*wire.Message
	b.Server.Hub().Group(appID).Join("observer", func(m *wire.Message) {
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
	b.Server.DisconnectApp(context.Background(), sess)
	// Each phase's update is handled before the next phase's drained
	// marker, so after one more phase nothing sent before the leave is
	// still unqueued at the host.
	as.RunPhase()
	host, _ := a.Server.Hub().Lookup(appID)
	aliceA, _ := a.Server.Login(context.Background(), "alice", "pw")
	if _, err := a.Server.ConnectApp(context.Background(), aliceA, appID); err != nil {
		t.Fatal(err)
	}
	fence := func(text string) {
		t.Helper()
		if err := a.Server.Chat(context.Background(), aliceA, text); err != nil {
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
	n := newFederation(t, 0, "d0", "d1", "d2")
	domains := n.Domains
	apps := []*appproto.Session{
		attachApp(t, domains[0], "chaos-a", defaultUsers()),
		attachApp(t, domains[1], "chaos-b", defaultUsers()),
	}

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
			sess, err := d.Server.Login(context.Background(), "alice", "pw")
			if err != nil {
				t.Errorf("client %d login: %v", c, err)
				return
			}
			appID := apps[c%len(apps)].AppID()
			if _, err := d.Server.ConnectApp(context.Background(), sess, appID); err != nil {
				t.Errorf("client %d connect: %v", c, err)
				return
			}
			for time.Now().Before(deadline) {
				switch r.Intn(6) {
				case 0: // try to steer under the lock
					granted, _, err := d.Server.LockOp(context.Background(), sess, true)
					if err != nil || !granted {
						continue
					}
					if _, err := d.Server.SubmitCommand(context.Background(), sess, "set_param", []wire.Param{
						{Key: "name", Value: "source_amp"},
						{Key: "value", Value: "1.5"},
					}); err == nil {
						steers.Add(1)
					}
					d.Server.LockOp(context.Background(), sess, false)
				case 1:
					d.Server.SubmitCommand(context.Background(), sess, "status", nil)
				case 2:
					d.Server.Chat(context.Background(), sess, "chaos")
				case 3:
					sess.Buffer.DrainEntries(0)
				case 4:
					d.Server.Apps(context.Background(), "alice")
				case 5:
					d.Server.SubmitCommand(context.Background(), sess, "get_param", []wire.Param{{Key: "name", Value: "source_amp"}})
				}
			}
			d.Server.Logout(context.Background(), sess)
		}(c)
	}
	// Mid-run: kill d2 abruptly (no offer withdrawal — close the wire
	// first) while the chaos clients keep hammering d0 and d1.
	time.Sleep(400 * time.Millisecond)
	d2 := domains[2]
	n.Kill(d2)
	// Survivors detect the death: drive the failure detector until both
	// either opened the breaker or pruned the peer via discovery.
	sawDown := func(d *domain) bool {
		for _, ph := range d.Substrate.PeerHealth() {
			if ph.Peer == "d2" && (ph.State == "down" || ph.State == "probing") {
				return true
			}
		}
		for _, p := range d.Substrate.Peers() {
			if p == "d2" {
				return false
			}
		}
		return true // pruned entirely: also a detected death
	}
	waitFor(t, 10*time.Second, func() bool {
		domains[0].Substrate.CheckPeersNow()
		domains[1].Substrate.CheckPeersNow()
		return sawDown(domains[0]) && sawDown(domains[1])
	})

	// Restart d2 under the same name and re-federate.
	if err := n.Restart(d2); err != nil {
		t.Fatal(err)
	}

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
	sess, err := d2.Server.Login(context.Background(), "alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d2.Server.ConnectApp(context.Background(), sess, apps[0].AppID()); err != nil {
		t.Fatalf("connect via reborn domain: %v", err)
	}
	waitFor(t, 10*time.Second, func() bool {
		granted, _, err := d2.Server.LockOp(context.Background(), sess, true)
		return err == nil && granted
	})
	if _, err := d2.Server.SubmitCommand(context.Background(), sess, "set_param", []wire.Param{
		{Key: "name", Value: "source_amp"},
		{Key: "value", Value: "2.0"},
	}); err != nil {
		t.Errorf("steer via reborn domain: %v", err)
	}
	d2.Server.LockOp(context.Background(), sess, false)
	d2.Server.Logout(context.Background(), sess)
}

func serverOf(domains []*domain, appID string) *server.Server {
	for _, d := range domains {
		if d.Server.Name() == server.ServerOfApp(appID) {
			return d.Server
		}
	}
	return nil
}

// TestPeerFailureHandledCleanly kills the host domain abruptly and checks
// that the remote server degrades gracefully: remote operations fail with
// errors (never hang or panic), the failure detector opens the breaker so
// later operations fail fast with core.ErrPeerDown, and the dead peer's
// applications stay listed — marked unavailable — from the cache.
func TestPeerFailureHandledCleanly(t *testing.T) {
	n := newFederation(t, 0, "rutgers", "caltech")
	a, b := n.Domains[0], n.Domains[1]
	as := attachApp(t, a, "wave", defaultUsers())
	appID := as.AppID()

	sess, _ := b.Server.Login(context.Background(), "alice", "pw")
	if _, err := b.Server.ConnectApp(context.Background(), sess, appID); err != nil {
		t.Fatal(err)
	}
	// Populate b's remote-app cache while the host is alive.
	if apps := b.Server.Apps(context.Background(), "alice"); len(apps) != 1 || apps[0].Unavailable {
		t.Fatalf("pre-failure apps = %v", apps)
	}

	// Abrupt death: close the host's ORB and server without withdrawing.
	as.Close()
	a.Substrate.Close()
	a.ORB.Close()
	a.Server.Close()
	b.ORB.DropConn(a.ORB.Addr())

	// Remote operations fail with errors, promptly.
	done := make(chan error, 1)
	go func() {
		_, err := b.Server.SubmitCommand(context.Background(), sess, "status", nil)
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
	if _, _, err := b.Server.LockOp(context.Background(), sess, true); err == nil {
		t.Error("lock relay to dead peer succeeded")
	}

	// Drive the failure detector to the down threshold; dials to the
	// closed listener fail immediately, so this is fast and deterministic.
	for i := 0; i < core.DefaultDownAfter; i++ {
		b.Substrate.CheckPeersNow()
	}
	if ph := b.Substrate.PeerHealth(); len(ph) != 1 || ph[0].Peer != "rutgers" || ph[0].State != "down" {
		t.Fatalf("peer health after %d failed probes = %+v", core.DefaultDownAfter, ph)
	}

	// Breaker open: operations fail fast with the typed error, well under
	// the RPC timeout.
	start := time.Now()
	_, err := b.Server.SubmitCommand(context.Background(), sess, "status", nil)
	if !errors.Is(err, core.ErrPeerDown) {
		t.Errorf("command after breaker open: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("breaker-open command took %v, want fast-fail", elapsed)
	}

	// The dead peer's applications are still listed, marked unavailable.
	apps := b.Server.Apps(context.Background(), "alice")
	if len(apps) != 1 || !apps[0].Unavailable || apps[0].ID != appID {
		t.Errorf("apps after peer death = %+v", apps)
	}

	// Stats surface the breaker state.
	ph := b.Substrate.PeerHealth()
	if len(ph) != 1 || ph[0].Peer != "rutgers" || ph[0].State != "down" || ph[0].BreakerOpens == 0 {
		t.Errorf("peer health = %+v", ph)
	}
}

// TestResourcePolicyThrottlesPeer exercises §6.3's access policies: a
// peer exceeding its request-rate budget is denied at the host with a
// RESOURCE_POLICY error, and its consumption is accounted.
func TestResourcePolicyThrottlesPeer(t *testing.T) {
	n := newFederation(t, 0, "rutgers", "caltech")
	a, b := n.Domains[0], n.Domains[1]
	as := attachApp(t, a, "wave", defaultUsers())
	appID := as.AppID()

	// rutgers (the host) restricts caltech to 2 requests with no refill.
	a.Substrate.Accounting().SetPolicy("caltech", policy.Policy{RequestsPerSec: 0.0001, RequestBurst: 2})

	sess, _ := b.Server.Login(context.Background(), "alice", "pw")
	if _, err := b.Server.ConnectApp(context.Background(), sess, appID); err != nil {
		t.Fatal(err)
	}
	granted, _, err := b.Server.LockOp(context.Background(), sess, true)
	if err != nil || !granted {
		t.Fatalf("first lock consumed budget unexpectedly: %v %v", granted, err)
	}
	if _, _, err := b.Server.LockOp(context.Background(), sess, false); err != nil {
		t.Fatal(err)
	}
	// Third relayed request exceeds the burst of 2.
	if _, _, err := b.Server.LockOp(context.Background(), sess, true); err == nil {
		t.Fatal("request over policy budget was admitted")
	}
	usage := a.Substrate.Accounting().Usage("caltech")
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
	n := newFederation(t, 0, "rutgers", "caltech")
	a, b := n.Domains[0], n.Domains[1]
	as := attachApp(t, a, "wave", defaultUsers())
	appID := as.AppID()

	// A byte budget too small for any bulk payload.
	a.Substrate.Accounting().SetPolicy("caltech", policy.Policy{BytesPerSec: 1, ByteBurst: 16})

	proxy := orb.ObjRef{Addr: a.ORB.Addr(), Key: core.ProxyKey(appID)}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	join := &wire.Message{Kind: wire.KindJoin, App: appID, Client: "caltech/c1"}
	for i := 0; i < 3; i++ {
		if err := b.ORB.Invoke(ctx, proxy, "collab",
			core.CollabReq{Msg: join, From: "caltech"}, nil); err != nil {
			t.Fatalf("genuine membership message hit the meter: %v", err)
		}
	}

	forged := &wire.Message{Kind: wire.KindJoin, App: appID, Client: "caltech/c1",
		Data: make([]byte, 4096)}
	err := b.ORB.Invoke(ctx, proxy, "collab", core.CollabReq{Msg: forged, From: "caltech"}, nil)
	if err == nil {
		t.Fatal("bulk data tagged as a join bypassed the meter")
	}
	var re *orb.RemoteError
	if !errors.As(err, &re) || re.Code != core.CodePolicy {
		t.Errorf("forged join error = %v, want code %s", err, core.CodePolicy)
	}
}

// TestDirectoryChaosConcurrentListings hammers the listing fan-out from
// several goroutines while the application population churns (event
// invalidations land mid-round) and one peer dies abruptly and is reborn
// under the same name. Run with -race: the invariant is liveness (every
// listing completes), degraded marking while the peer is down, and
// coherent recovery after rebirth.
func TestDirectoryChaosConcurrentListings(t *testing.T) {
	n := newFederation(t, 0, "d0", "d1", "d2")
	d0, d1, d2 := n.Domains[0], n.Domains[1], n.Domains[2]
	attachApp(t, d1, "stable-1", defaultUsers())
	attachApp(t, d2, "stable-2", defaultUsers())

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
				d0.Substrate.RemoteApps(ctx, "alice")
				if i%4 == g {
					d0.Substrate.RemoteUsers(ctx, "")
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
			as, err := appproto.Dial(context.Background(), d1.Server.Daemon().Addr(), rt)
			if err != nil {
				t.Error(err)
				return
			}
			deadline := time.Now().Add(2 * time.Second)
			for len(d1.Server.LocalAppIDs()) < 2 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			as.Close()
			deadline = time.Now().Add(2 * time.Second)
			for len(d1.Server.LocalAppIDs()) > 1 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
		}
	}()

	// Let the chaos build, then kill d2 abruptly — wire first, so its
	// trader offer lingers and survivors keep it as a known-but-dead peer.
	time.Sleep(300 * time.Millisecond)
	n.Kill(d2)
	waitFor(t, 10*time.Second, func() bool {
		d0.Substrate.CheckPeersNow()
		for _, ph := range d0.Substrate.PeerHealth() {
			if ph.Peer == "d2" && (ph.State == "down" || ph.State == "probing") {
				return true
			}
		}
		return false
	})
	// Listings keep completing, serving d2's last good listing marked
	// unavailable instead of hanging or silently dropping it.
	waitFor(t, 10*time.Second, func() bool {
		for _, a := range d0.Substrate.RemoteApps(context.Background(), "alice") {
			if server.ServerOfApp(a.ID) == "d2" && a.Unavailable {
				return true
			}
		}
		return false
	})

	// A reborn d2 re-federates under the same name; its new application
	// becomes visible and available through the invalidated cache.
	if err := n.Restart(d2); err != nil {
		t.Fatal(err)
	}
	reborn := attachApp(t, d2, "reborn", defaultUsers())
	discoverAll(t, n)
	waitFor(t, 10*time.Second, func() bool {
		d0.Substrate.CheckPeersNow()
		for _, a := range d0.Substrate.RemoteApps(context.Background(), "alice") {
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
	st := d0.Substrate.DirectoryStats()
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

// TestDeliverBatchMatchesDeliver proves the batched control-channel push
// is observationally equivalent to the per-message form: the same
// messages, invoked either way against a real substrate, reach a
// connected client session in the same order.
func TestDeliverBatchMatchesDeliver(t *testing.T) {
	n := newFederation(t, 0, "rutgers", "caltech")
	a, b := n.Domains[0], n.Domains[1]
	as := attachApp(t, a, "wave", defaultUsers())
	appID := as.AppID()

	sess, err := b.Server.Login(context.Background(), "alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Server.ConnectApp(context.Background(), sess, appID); err != nil {
		t.Fatal(err)
	}
	sess.Buffer.DrainEntries(0) // discard connect-time traffic
	// The host's app-registered event is a oneway that can land at any
	// point after the application registered, so it is dropped by
	// identity rather than counted against either path.
	drain := func() []*wire.Message {
		var out []*wire.Message
		for _, m := range drained(sess.Buffer) {
			if m.Kind == wire.KindEvent && m.Op == "app-registered" && m.App == appID {
				continue
			}
			out = append(out, m)
		}
		return out
	}

	msgs := make([]*wire.Message, 6)
	for i := range msgs {
		msgs[i] = wire.NewUpdate(appID, uint64(1000+i),
			wire.Param{Key: "i", Value: fmt.Sprint(i)})
	}
	bControl := orb.ObjRef{Addr: b.ORB.Addr(), Key: core.ControlKey}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// Per-message deliver (two-way, so arrival is synchronous).
	for _, m := range msgs {
		if err := a.ORB.Invoke(ctx, bControl, "deliver",
			core.DeliverReq{App: appID, Msg: m, From: "rutgers"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	viaDeliver := drain()

	// Same messages as one deliverBatch.
	items := make([]core.DeliverItem, len(msgs))
	for i, m := range msgs {
		items[i] = core.DeliverItem{App: appID, Msg: m}
	}
	if err := a.ORB.Invoke(ctx, bControl, "deliverBatch",
		core.DeliverBatchReq{Items: items, From: "rutgers"}, nil); err != nil {
		t.Fatal(err)
	}
	viaBatch := drain()

	if len(viaDeliver) != len(msgs) {
		t.Fatalf("deliver path delivered %d messages, want %d", len(viaDeliver), len(msgs))
	}
	if len(viaBatch) != len(viaDeliver) {
		t.Fatalf("deliverBatch delivered %d messages, deliver delivered %d",
			len(viaBatch), len(viaDeliver))
	}
	for i := range viaDeliver {
		d, bm := viaDeliver[i], viaBatch[i]
		if d.Kind != bm.Kind || d.Seq != bm.Seq || d.Params[0].Value != bm.Params[0].Value {
			t.Errorf("message %d differs: deliver=%+v batch=%+v", i, d, bm)
		}
	}

	// The real subscription (created by ConnectApp above) registered a
	// relay sender at the host; it must be visible in the stats snapshot.
	rows := a.Substrate.RelayStats()
	found := false
	for _, r := range rows {
		if r.Peer == "caltech" {
			found = true
		}
	}
	if !found {
		t.Errorf("host RelayStats has no caltech row: %+v", rows)
	}
}

// TestPeerHealthNamesEqualPeers pins the one-table invariant: whatever
// discovery rounds, stray relay failures and drops happen, the stats rows
// name exactly the discovered peers.
func TestPeerHealthNamesEqualPeers(t *testing.T) {
	n := newFederation(t, 0, "rutgers", "caltech", "utexas")
	a, _, c := n.Domains[0], n.Domains[1], n.Domains[2]
	discoverAll(t, n)

	same := func(when string) {
		t.Helper()
		var health []string
		for _, ph := range a.Substrate.PeerHealth() {
			health = append(health, ph.Peer)
		}
		peers := a.Substrate.Peers()
		sort.Strings(peers)
		if !reflect.DeepEqual(health, peers) {
			t.Fatalf("%s: PeerHealth names %v, Peers %v", when, health, peers)
		}
	}
	same("after discovery")

	// A relay sender to a peer discovery never offered fails its pushes.
	r := a.Substrate.StartRelay("ghost", "127.0.0.1:1")
	defer r.Close()
	// The second failure proves the first was reported.
	for i := uint64(1); i <= 2; i++ {
		r.Deliver("wave", wire.NewUpdate("wave", i))
		waitFor(t, 5*time.Second, func() bool { return r.Failures() >= i })
	}
	same("after relay failures for an undiscovered peer")

	// utexas withdraws its offer: kept through one miss, then dropped.
	c.Substrate.Close()
	if err := a.Substrate.DiscoverPeers(); err != nil {
		t.Fatal(err)
	}
	same("after one missed round")
	if err := a.Substrate.DiscoverPeers(); err != nil {
		t.Fatal(err)
	}
	same("after the drop")
	if got := a.Substrate.Peers(); len(got) != 1 || got[0] != "caltech" {
		t.Fatalf("peers after utexas withdrew = %v", got)
	}
}
