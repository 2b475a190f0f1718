package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"discover/internal/app"
	"discover/internal/appproto"
	"discover/internal/netsim"
	"discover/internal/session"
)

// newWANNet is newTestNet with every domain at its own netsim site, so
// relay traffic crosses shaped WAN links.
func newWANNet(t *testing.T, rtt time.Duration) *testNet {
	n := newTestNet(t)
	topo := netsim.NewTopology()
	topo.SetDefaultRTT(rtt)
	n.wan = netsim.New(topo)
	n.siteOf = make(map[string]netsim.Site)
	return n
}

// TestRelayGateFollowsMembership pins the host's update gate across four
// domains: an application update is relayed to a domain exactly when the
// group's converged membership fold has a member there, while chats and
// membership ops reach every subscribed domain and all replicas converge.
func TestRelayGateFollowsMembership(t *testing.T) {
	const phases = 10
	ctx := context.Background()
	n := newWANNet(t, 2*time.Millisecond)
	h := n.addDomain("h")
	peers := map[string]*domain{}
	for _, name := range []string{"p1", "p2", "p3"} {
		peers[name] = n.addDomain(name)
	}
	as := n.attachApp(h, "wave", defaultUsers())
	n.discoverAll()
	appID := as.AppID()

	// expect models each host relay sender's delivered count: membership
	// ops and chats go to every subscribed relay but their origin's, and
	// updates only to listening domains.
	expect := map[string]uint64{}
	subscribed := map[string]bool{}
	toRelays := func(except string) {
		for name := range subscribed {
			if name != except {
				expect[name]++
			}
		}
	}
	connect := func(d *domain, name string) *session.Session {
		t.Helper()
		sess, err := d.srv.Login(ctx, "alice", "pw")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.srv.ConnectApp(ctx, sess, appID); err != nil {
			t.Fatalf("connect at %s: %v", name, err)
		}
		if name != "h" && !subscribed[name] {
			subscribed[name] = true
			expect[name] = 0
		}
		toRelays(name)
		return sess
	}
	disconnect := func(d *domain, name string, sess *session.Session) {
		d.srv.DisconnectApp(ctx, sess)
		toRelays(name)
	}
	// settle waits until every relay sender has delivered exactly what
	// the model expects.
	settle := func(label string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			got := map[string]uint64{}
			for _, r := range h.sub.RelayStats() {
				got[r.Peer] = r.Delivered
				if r.Dropped != 0 || r.Failures != 0 {
					t.Fatalf("%s: relay to %s dropped %d, failed %d", label, r.Peer, r.Dropped, r.Failures)
				}
			}
			if reflect.DeepEqual(got, expect) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: relay delivered %v, want %v", label, got, expect)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Members at p1 and p2; p3 subscribes but its only member leaves, and
	// p2's second member leaves while its first stays.
	hostSess := connect(h, "h")
	m1 := connect(peers["p1"], "p1")
	m2 := connect(peers["p2"], "p2")
	m3 := connect(peers["p3"], "p3")
	m2b := connect(peers["p2"], "p2")
	disconnect(peers["p3"], "p3", m3)
	disconnect(peers["p2"], "p2", m2b)
	settle("setup")

	g, _ := h.srv.Hub().Lookup(appID)
	listening := map[string]bool{"p1": true, "p2": true, "p3": false}
	for name, want := range listening {
		if g.Listening(name) != want {
			t.Fatalf("host Listening(%s) = %v, want %v", name, !want, want)
		}
	}

	// N phases: N updates to each listening domain, none to p3. A chat
	// from the host's member then reaches all three; being queued after
	// the updates, it also fences them.
	for i := 0; i < phases; i++ {
		if _, err := as.RunPhase(); err != nil {
			t.Fatal(err)
		}
	}
	for name, on := range listening {
		if on {
			expect[name] += phases
		}
	}
	settleListening := func() bool {
		for _, r := range h.sub.RelayStats() {
			if listening[r.Peer] && r.Delivered < expect[r.Peer] {
				return false
			}
		}
		return true
	}
	waitFor(t, 10*time.Second, settleListening)
	if err := h.srv.Chat(ctx, hostSess, "fence 1"); err != nil {
		t.Fatal(err)
	}
	toRelays("h")
	settle(fmt.Sprintf("after %d phases", phases))

	// Every remote member leaves: the counts stay put through N more
	// phases, apart from the leave ops and the fence chat.
	disconnect(peers["p1"], "p1", m1)
	disconnect(peers["p2"], "p2", m2)
	for name := range listening {
		if g.Listening(name) {
			t.Fatalf("host still counts %s as listening", name)
		}
	}
	for i := 0; i < phases+1; i++ { // the extra phase queues the tenth update
		if _, err := as.RunPhase(); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.srv.Chat(ctx, hostSess, "fence 2"); err != nil {
		t.Fatal(err)
	}
	toRelays("h")
	settle("after every remote member left")

	// Chats reached every subscribed domain, and every replica holds the
	// same converged group state.
	want := g.Materialized()
	waitFor(t, 10*time.Second, func() bool {
		for _, d := range peers {
			pg, ok := d.srv.Hub().Lookup(appID)
			if !ok || !bytes.Equal(pg.Materialized(), want) {
				return false
			}
		}
		return true
	})
	for name, d := range peers {
		pg, _ := d.srv.Hub().Lookup(appID)
		if info := pg.LogInfo(); info.Chats != 2 {
			t.Errorf("%s replica holds %d chats, want 2", name, info.Chats)
		}
	}
}

// TestDialReturnsConnectableApp: once appproto.Dial returns, a peer can
// connect to the application at once — it is registered, its ACL is in
// place and its CorbaProxy servant answers the join forward.
func TestDialReturnsConnectableApp(t *testing.T) {
	ctx := context.Background()
	n := newTestNet(t)
	a := n.addDomain("rutgers")
	b := n.addDomain("caltech")
	n.discoverAll()
	sess, err := b.srv.Login(ctx, "alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		rt, err := app.NewRuntime(app.Config{
			Name: fmt.Sprintf("wave-%d", i), Kernel: app.NewSeismic1D(16), ComputeSteps: 1, Users: defaultUsers(),
		})
		if err != nil {
			t.Fatal(err)
		}
		as, err := appproto.Dial(ctx, a.srv.Daemon().Addr(), rt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.srv.ConnectApp(ctx, sess, as.AppID()); err != nil {
			as.Close()
			t.Fatalf("attempt %d: connect right after Dial: %v", i, err)
		}
		b.srv.DisconnectApp(ctx, sess)
		as.Close()
	}
}

// TestConnectAppReturnsJoinForwardError: a remote ConnectApp whose join
// op cannot reach the host fails and leaves no local membership behind,
// so a nil error always means the host relays updates here.
func TestConnectAppReturnsJoinForwardError(t *testing.T) {
	ctx := context.Background()
	n := newTestNet(t)
	a := n.addDomain("rutgers")
	b := n.addDomain("caltech")
	as := n.attachApp(a, "wave", defaultUsers())
	n.discoverAll()
	appID := as.AppID()

	a.orb.Unregister(ProxyKey(appID)) // the host can no longer take collab ops
	sess, _ := b.srv.Login(ctx, "alice", "pw")
	if _, err := b.srv.ConnectApp(ctx, sess, appID); err == nil {
		t.Fatal("ConnectApp succeeded although the join forward failed")
	}
	if sess.App() != "" {
		t.Errorf("failed connect left the session bound to %q", sess.App())
	}
	g := b.srv.Hub().Group(appID)
	if ms := g.Members(); len(ms) != 0 {
		t.Errorf("failed connect left local members %v", ms)
	}
	if ms := g.ConvergedMembers(); len(ms) != 0 {
		t.Errorf("failed connect left %v present in the local fold", ms)
	}
	if host, _ := a.srv.Hub().Lookup(appID); host.Listening("caltech") {
		t.Error("host counts caltech as listening after a failed connect")
	}
}
