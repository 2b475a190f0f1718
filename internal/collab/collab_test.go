package collab

import (
	"sync"
	"testing"

	"discover/internal/wire"
)

// sink collects deliveries for one member.
type sink struct {
	mu   sync.Mutex
	msgs []*wire.Message
}

func (s *sink) deliver(m *wire.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.msgs = append(s.msgs, m)
}

func (s *sink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.msgs)
}

func (s *sink) last() *wire.Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.msgs) == 0 {
		return nil
	}
	return s.msgs[len(s.msgs)-1]
}

func setupGroup(t *testing.T) (*Group, map[string]*sink) {
	t.Helper()
	h := NewHub()
	g := h.Group("app#1")
	sinks := make(map[string]*sink)
	for _, id := range []string{"c1", "c2", "c3"} {
		s := &sink{}
		sinks[id] = s
		g.Join(id, s.deliver)
	}
	return g, sinks
}

func TestHubGroupLifecycle(t *testing.T) {
	h := NewHub()
	g1 := h.Group("a")
	if h.Group("a") != g1 {
		t.Error("Group not idempotent")
	}
	h.Group("b")
	if got := h.Groups(); len(got) != 2 || got[0] != "a" {
		t.Errorf("Groups = %v", got)
	}
	h.Drop("a")
	if got := h.Groups(); len(got) != 1 || got[0] != "b" {
		t.Errorf("after Drop: %v", got)
	}
}

func TestBroadcastUpdateReachesEveryone(t *testing.T) {
	g, sinks := setupGroup(t)
	u := wire.NewUpdate("app#1", 1)
	if n := g.BroadcastUpdate(u, ""); n != 3 {
		t.Errorf("delivered to %d, want 3", n)
	}
	for id, s := range sinks {
		if s.count() != 1 {
			t.Errorf("%s received %d", id, s.count())
		}
	}
	// Updates ignore collaboration mode: status is never private.
	g.SetEnabled("c2", false)
	g.BroadcastUpdate(wire.NewUpdate("app#1", 2), "")
	if sinks["c2"].count() != 2 {
		t.Error("disabled member missed a global update")
	}
	// except suppresses one member (echo prevention).
	g.BroadcastUpdate(wire.NewUpdate("app#1", 3), "c1")
	if sinks["c1"].count() != 2 {
		t.Error("excepted member received the update")
	}
}

func TestShareResponseRespectsCollaborationMode(t *testing.T) {
	g, sinks := setupGroup(t)
	resp := wire.NewResponse(wire.NewCommand("app#1", "c1", "status"), "ok")

	// Enabled requester: everyone enabled receives it.
	if n := g.ShareResponse("c1", resp); n != 3 {
		t.Errorf("shared with %d, want 3", n)
	}

	// Disabled requester: only the requester sees their response.
	g.SetEnabled("c1", false)
	before2, before3 := sinks["c2"].count(), sinks["c3"].count()
	if n := g.ShareResponse("c1", resp); n != 1 {
		t.Errorf("private response went to %d members", n)
	}
	if sinks["c2"].count() != before2 || sinks["c3"].count() != before3 {
		t.Error("private response leaked to the group")
	}

	// Disabled *peer* does not receive other clients' responses.
	g.SetEnabled("c1", true)
	before1 := sinks["c1"].count()
	g.ShareResponse("c2", resp)
	if sinks["c1"].count() != before1+1 {
		t.Error("enabled peer missed a shared response")
	}
	g.SetEnabled("c3", false)
	before3 = sinks["c3"].count()
	g.ShareResponse("c2", resp)
	if sinks["c3"].count() != before3 {
		t.Error("disabled peer received a shared response")
	}
}

func TestSubGroupsScopeTraffic(t *testing.T) {
	g, sinks := setupGroup(t)
	g.JoinSub("c1", "viz")
	g.JoinSub("c2", "viz")
	if g.Sub("c1") != "viz" || g.Sub("c3") != "" {
		t.Fatal("sub assignment wrong")
	}

	resp := wire.NewResponse(wire.NewCommand("app#1", "c1", "view"), "view-data")
	g.ShareResponse("c1", resp)
	if sinks["c2"].count() != 1 {
		t.Error("sub-group peer missed the response")
	}
	if sinks["c3"].count() != 0 {
		t.Error("response leaked outside the sub-group")
	}

	// Return to main group.
	g.JoinSub("c1", "")
	g.ShareResponse("c1", resp)
	if sinks["c3"].count() != 1 {
		t.Error("main-group member missed response after rejoining")
	}
	if g.JoinSub("ghost", "x") {
		t.Error("JoinSub for unknown member succeeded")
	}
}

func TestShareViewIgnoresSenderMode(t *testing.T) {
	g, sinks := setupGroup(t)
	g.SetEnabled("c1", false) // collaboration off...
	view := &wire.Message{Kind: wire.KindViewShare, App: "app#1", Client: "c1", Data: []byte("png")}
	if n := g.ShareView("c1", view); n != 2 {
		t.Errorf("explicit share reached %d, want 2", n)
	}
	if sinks["c2"].count() != 1 || sinks["c3"].count() != 1 {
		t.Error("explicit share did not reach the group")
	}
	if sinks["c1"].count() != 0 {
		t.Error("sender received their own share")
	}
	if n := g.ShareView("ghost", view); n != 0 {
		t.Error("share from unknown member delivered")
	}
}

func TestChat(t *testing.T) {
	g, sinks := setupGroup(t)
	g.Chat("c1", "alice", "hello world")
	m := sinks["c2"].last()
	if m == nil || m.Kind != wire.KindChat || m.Text != "hello world" {
		t.Errorf("chat delivery = %v", m)
	}
	if u, _ := m.Get("user"); u != "alice" {
		t.Errorf("chat user = %q", u)
	}
}

func TestWhiteboardReplayForLatecomers(t *testing.T) {
	g, sinks := setupGroup(t)
	for i := 0; i < 3; i++ {
		g.Whiteboard("c1", []byte{byte(i)})
	}
	if g.WhiteboardLen() != 3 {
		t.Fatalf("retained %d strokes", g.WhiteboardLen())
	}
	if sinks["c2"].count() != 3 {
		t.Errorf("c2 saw %d strokes live", sinks["c2"].count())
	}
	// A latecomer joins and receives the full whiteboard replay.
	late := &sink{}
	g.Join("late", late.deliver)
	if late.count() != 3 {
		t.Errorf("latecomer replayed %d strokes, want 3", late.count())
	}
}

func TestRelayMembers(t *testing.T) {
	g, sinks := setupGroup(t)
	relay := &sink{}
	g.JoinRelay("caltech", relay.deliver)
	// caltech has a present member, so shared responses reach its relay.
	g.ApplyOps([]Op{{Origin: "caltech", Seq: 1, Clock: 1, Kind: OpJoin, Client: "caltech/c9"}})
	if rs := g.Relays(); len(rs) != 1 || rs[0] != "caltech" {
		t.Fatalf("Relays = %v", rs)
	}
	if ms := g.Members(); len(ms) != 3 {
		t.Errorf("Members includes relay: %v", ms)
	}

	// One update: relay gets exactly one copy regardless of local fan-out.
	g.BroadcastUpdate(wire.NewUpdate("app#1", 1), "")
	if relay.count() != 1 {
		t.Errorf("relay received %d, want 1", relay.count())
	}

	// Relays receive responses even when in a sub-group scope.
	g.JoinSub("c1", "viz")
	resp := wire.NewResponse(wire.NewCommand("app#1", "c1", "x"), "ok")
	g.ShareResponse("c1", resp)
	if relay.count() != 2 {
		t.Errorf("relay missed a shared response: %d", relay.count())
	}

	// Echo prevention: updates arriving *from* a relay are excepted.
	before := relay.count()
	g.BroadcastUpdate(wire.NewUpdate("app#1", 2), "relay/caltech")
	if relay.count() != before {
		t.Error("relay echoed its own update")
	}
	if sinks["c1"].count() == 0 {
		t.Error("local members missed relay-forwarded update")
	}

	g.LeaveRelay("caltech")
	if len(g.Relays()) != 0 {
		t.Error("LeaveRelay failed")
	}
}

func TestLeave(t *testing.T) {
	g, sinks := setupGroup(t)
	g.Leave("c2")
	if n := g.BroadcastUpdate(wire.NewUpdate("app#1", 1), ""); n != 2 {
		t.Errorf("after Leave, delivered to %d", n)
	}
	if sinks["c2"].count() != 0 {
		t.Error("departed member received a message")
	}
	if g.SetEnabled("c2", true) {
		t.Error("SetEnabled for departed member succeeded")
	}
	if g.Enabled("c2") {
		t.Error("departed member reported enabled")
	}
}
