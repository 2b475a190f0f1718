package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"discover/internal/collab"
	"discover/internal/wire"
)

// These tests exercise the server's remote-facing surface directly (the
// paths the substrate normally drives), without standing up an ORB.

func TestLoginAsserted(t *testing.T) {
	d := deploy(t)
	if err := d.srv.LoginAsserted("alice"); err != nil {
		t.Errorf("asserted login for ACL user: %v", err)
	}
	if err := d.srv.LoginAsserted("mallory"); err == nil {
		t.Error("asserted login for unknown user succeeded")
	}
}

// TestRelaySubscriptionAndRemoteDelivery checks the host's relay leg:
// updates reach a peer's relay only while that peer has a present member
// in the group's converged membership fold, while replicated group
// traffic and responses for the peer's clients reach it regardless.
func TestRelaySubscriptionAndRemoteDelivery(t *testing.T) {
	d := deploy(t)
	appID := d.app.AppID()

	var mu sync.Mutex
	var relayed []*wire.Message
	deliver := func(m *wire.Message) {
		mu.Lock()
		relayed = append(relayed, m)
		mu.Unlock()
	}
	countKind := func(kind wire.Kind) int {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, m := range relayed {
			if m.Kind == kind {
				n++
			}
		}
		return n
	}
	if err := d.srv.SubscribeRelay(appID, "caltech", deliver); err != nil {
		t.Fatal(err)
	}
	if err := d.srv.SubscribeRelay("nosuch#1", "caltech", deliver); err == nil {
		t.Error("relay subscription for unknown app succeeded")
	}

	// No caltech member yet: an update skips the relay, but a chat op (a
	// replicated group op) still reaches it.
	alice := d.login(t, "alice")
	d.connect(t, alice)
	(*daemonHandler)(d.srv).HandleUpdate(appID, wire.NewUpdate(appID, 1))
	if n := countKind(wire.KindUpdate); n != 0 {
		t.Errorf("relay of a server with no member received %d updates, want 0", n)
	}
	if err := d.srv.Chat(context.Background(), alice, "hello caltech"); err != nil {
		t.Fatal(err)
	}
	if n := countKind(wire.KindChat); n != 1 {
		t.Errorf("relay received %d chat ops, want 1", n)
	}

	// A caltech client joins, the way ConnectApp's forward delivers it.
	caltech := collab.NewHub(collab.WithOrigin("caltech")).Group(appID)
	d.srv.DeliverCollabFromPeer(appID, caltech.NoteJoin("caltech/client-9"), "caltech")
	if !d.srv.Hub().Group(appID).Listening("caltech") {
		t.Fatal("caltech join op did not make caltech listening")
	}
	mu.Lock()
	relayed = nil
	mu.Unlock()

	// A phase produces one update; the relay receives exactly one copy.
	if _, err := d.app.RunPhase(); err != nil {
		t.Fatal(err)
	}
	waitRelayed := func(want int) {
		t.Helper()
		d.pump(t, func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(relayed) >= want
		})
	}
	waitRelayed(1)
	mu.Lock()
	if relayed[0].Kind != wire.KindUpdate {
		t.Errorf("relayed kind = %v", relayed[0].Kind)
	}
	n := len(relayed)
	mu.Unlock()

	// A response for a remote requester goes to exactly its server relay.
	cmd := wire.NewCommand(appID, "caltech/client-9", "status")
	cmd.Set("_user", "alice")
	if err := d.srv.EnqueueLocalCommand(appID, cmd); err != nil {
		t.Fatal(err)
	}
	// Wait for the response itself: the updates of the phases pump runs
	// meanwhile would satisfy any count of relayed messages.
	d.pump(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, m := range relayed[n:] {
			if m.Kind == wire.KindResponse && m.Client == "caltech/client-9" {
				return true
			}
		}
		return false
	})

	// Its last member leaves: updates to caltech stop. The daemon
	// handles an application's updates in order on one connection and
	// answers a phase only after the updates sent before it, so once the
	// fence phase returns, no update from an earlier phase is in flight.
	d.srv.DeliverCollabFromPeer(appID, caltech.NoteLeave("caltech/client-9"), "caltech")
	if _, err := d.app.RunPhase(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	n = len(relayed)
	mu.Unlock()
	(*daemonHandler)(d.srv).HandleUpdate(appID, wire.NewUpdate(appID, 2))
	d.app.RunPhase()
	d.app.RunPhase() // fences the previous phase's update
	mu.Lock()
	if len(relayed) != n {
		t.Error("relay received traffic after its server's last member left")
	}
	mu.Unlock()
}

func TestDeliverRemoteMessageFansOutLocally(t *testing.T) {
	d := deploy(t)
	alice := d.login(t, "alice")
	// Connect alice to a *remote* app id by hand: join the local group.
	remoteID := "caltech#7"
	d.srv.Hub().Group(remoteID).Join(alice.ClientID, func(m *wire.Message) { alice.Buffer.Push(m) })

	// An update relayed from the host is broadcast to local members.
	d.srv.DeliverRemoteMessage(remoteID, wire.NewUpdate(remoteID, 3), "caltech")
	msgs := drained(alice.Buffer)
	if len(msgs) != 1 || msgs[0].Kind != wire.KindUpdate {
		t.Fatalf("remote update fan-out = %v", msgs)
	}

	// A response addressed to the local client is archived and delivered.
	resp := wire.NewResponse(wire.NewCommand(remoteID, alice.ClientID, "status"), "ok")
	d.srv.DeliverRemoteMessage(remoteID, resp, "caltech")
	msgs = drained(alice.Buffer)
	if len(msgs) != 1 || msgs[0].Kind != wire.KindResponse {
		t.Fatalf("remote response fan-out = %v", msgs)
	}
	if d.srv.Archive().InteractionLog(remoteID).Len() == 0 {
		t.Error("remote response not archived at the client's server")
	}

	// A whiteboard stroke from the peer is recorded for latecomers and
	// delivered once; redelivering the same op is a dedup.
	caltech := collab.NewHub(collab.WithOrigin("caltech")).Group(remoteID)
	stroke, _ := caltech.Whiteboard("caltech/client-1", []byte{1})
	d.srv.DeliverRemoteMessage(remoteID, stroke, "caltech")
	d.srv.DeliverRemoteMessage(remoteID, stroke, "caltech")
	if d.srv.Hub().Group(remoteID).WhiteboardLen() != 1 {
		t.Error("relayed stroke not recorded exactly once")
	}
	if msgs = drained(alice.Buffer); len(msgs) != 1 || msgs[0].Kind != wire.KindWhiteboard {
		t.Errorf("stroke fan-out = %v, want one stroke", msgs)
	}

	// DeliverCollabFromPeer (the host side of forwarded collab) reaches
	// local members and records strokes too.
	utexas := collab.NewHub(collab.WithOrigin("utexas")).Group(remoteID)
	stroke2, _ := utexas.Whiteboard("utexas/client-9", []byte{2})
	d.srv.DeliverCollabFromPeer(remoteID, stroke2, "utexas")
	if d.srv.Hub().Group(remoteID).WhiteboardLen() != 2 {
		t.Error("DeliverCollabFromPeer did not record the stroke")
	}
	if msgs = drained(alice.Buffer); len(msgs) != 1 || msgs[0].Kind != wire.KindWhiteboard {
		t.Errorf("forwarded stroke fan-out = %v, want one stroke", msgs)
	}

	// A stroke without op identity is neither logged nor delivered on
	// either entry point.
	for _, deliver := range []func(*wire.Message){
		func(m *wire.Message) { d.srv.DeliverRemoteMessage(remoteID, m, "caltech") },
		func(m *wire.Message) { d.srv.DeliverCollabFromPeer(remoteID, m, "caltech") },
	} {
		deliver(&wire.Message{Kind: wire.KindWhiteboard, App: remoteID, Client: "caltech/client-1", Data: []byte{3}})
	}
	if n := d.srv.Hub().Group(remoteID).WhiteboardLen(); n != 2 {
		t.Errorf("identity-less strokes were logged: %d strokes, want 2", n)
	}
	if msgs = drained(alice.Buffer); len(msgs) != 0 {
		t.Errorf("identity-less strokes were delivered: %v", msgs)
	}

	// View shares carry no identity by design: both entry points deliver
	// them without logging.
	share := &wire.Message{Kind: wire.KindViewShare, App: remoteID, Client: "caltech/client-1", Data: []byte("view")}
	d.srv.DeliverRemoteMessage(remoteID, share, "caltech")
	d.srv.DeliverCollabFromPeer(remoteID, share, "caltech")
	if msgs = drained(alice.Buffer); len(msgs) != 2 || msgs[0].Kind != wire.KindViewShare || msgs[1].Kind != wire.KindViewShare {
		t.Errorf("view share fan-out = %v, want two view shares", msgs)
	}
	if info := d.srv.Hub().Group(remoteID).LogInfo(); info.Ops != 2 {
		t.Errorf("view shares were logged: %d ops, want 2", info.Ops)
	}
}

func TestHTTPShareAndAttach(t *testing.T) {
	d := deploy(t)
	ts := httptest.NewServer(d.srv.HTTPHandler())
	t.Cleanup(ts.Close)
	c := &httpClient{t: t, base: ts.URL}
	a, _ := c.login("alice", "pw")
	b, _ := c.login("bob", "pw")
	appID := d.app.AppID()
	c.post("/api/v1/connect", ConnectRequest{ClientID: a.ClientID, App: appID}, nil)
	c.post("/api/v1/connect", ConnectRequest{ClientID: b.ClientID, App: appID}, nil)

	// Explicit view share reaches bob.
	if code := c.post("/api/v1/share", ShareRequest{ClientID: a.ClientID, View: []byte("png")}, nil); code != 200 {
		t.Fatalf("share -> %d", code)
	}
	var pr EventsResponse
	c.get("/api/v1/session/"+url.PathEscape(b.ClientID)+"/events", &pr)
	var shared bool
	for _, m := range pr.Messages {
		if m.Kind == wire.KindViewShare && string(m.Data) == "png" {
			shared = true
		}
	}
	if !shared {
		t.Error("shared view never delivered")
	}

	// Attach over HTTP with the login token.
	var ar AttachResponse
	if code := c.post("/api/v1/attach", AttachRequest{ClientID: a.ClientID, Token: a.Token}, &ar); code != 200 {
		t.Fatalf("attach -> %d", code)
	}
	if ar.User != "alice" || ar.App != appID || ar.Privilege != "steer" {
		t.Errorf("attach = %+v", ar)
	}
	if code := c.post("/api/v1/attach", AttachRequest{ClientID: a.ClientID, Token: "junk"}, nil); code != http.StatusUnauthorized {
		t.Errorf("attach with junk token -> %d", code)
	}
	if code := c.post("/api/v1/attach", AttachRequest{ClientID: a.ClientID, Token: b.Token}, nil); code != http.StatusUnauthorized {
		t.Errorf("cross-user attach -> %d", code)
	}
	if code := c.post("/api/v1/attach", AttachRequest{ClientID: "ghost", Token: a.Token}, nil); code != http.StatusUnauthorized {
		t.Errorf("attach to unknown session -> %d", code)
	}
}
