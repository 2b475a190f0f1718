package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"discover/internal/app"
	"discover/internal/appproto"
	"discover/internal/auth"
	"discover/internal/session"
	"discover/internal/wire"
)

// drained empties a session's delivery queue and returns its messages.
func drained(q *session.Queue) []*wire.Message {
	ents, _ := q.DrainEntries(0)
	out := make([]*wire.Message, len(ents))
	for i, e := range ents {
		out[i] = e.Msg
	}
	return out
}

// testDeployment is one server plus one connected application.
type testDeployment struct {
	srv *Server
	app *appproto.Session
}

func deploy(t *testing.T, opts ...func(*Config)) *testDeployment {
	t.Helper()
	cfg := Config{Name: "rutgers", RecordUpdates: true, Logf: func(string, ...any) {}}
	for _, o := range opts {
		o(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ListenDaemon("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.Auth().SetUserSecret("alice", "pw")
	s.Auth().SetUserSecret("bob", "pw")
	s.Auth().SetUserSecret("eve", "pw")

	rt, err := app.NewRuntime(app.Config{
		Name:         "wave",
		Kernel:       app.NewSeismic1D(64),
		ComputeSteps: 2,
		Users: []app.UserGrant{
			{User: "alice", Privilege: "steer"},
			{User: "bob", Privilege: "monitor"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	as, err := appproto.Dial(context.Background(), s.Daemon().Addr(), rt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { as.Close() })

	// Wait until the server registers the application.
	deadline := time.Now().Add(2 * time.Second)
	for len(s.LocalAppIDs()) == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if len(s.LocalAppIDs()) == 0 {
		t.Fatal("application never registered")
	}
	return &testDeployment{srv: s, app: as}
}

func (d *testDeployment) login(t *testing.T, user string) *session.Session {
	t.Helper()
	sess, err := d.srv.Login(context.Background(), user, "pw")
	if err != nil {
		t.Fatalf("login %s: %v", user, err)
	}
	return sess
}

func (d *testDeployment) connect(t *testing.T, sess *session.Session) string {
	t.Helper()
	appID := d.app.AppID()
	if _, err := d.srv.ConnectApp(context.Background(), sess, appID); err != nil {
		t.Fatalf("connect: %v", err)
	}
	return appID
}

// pumpBudget bounds how long pump drives phases. Phases take
// microseconds, so a phase count says nothing about how long a loaded
// machine has had to deliver what the predicate waits for.
const pumpBudget = 10 * time.Second

// pump runs application phases until the predicate is satisfied.
func (d *testDeployment) pump(t *testing.T, until func() bool) {
	t.Helper()
	deadline := time.Now().Add(pumpBudget)
	for !until() {
		if time.Now().After(deadline) {
			t.Fatalf("condition never satisfied within %v of phases", pumpBudget)
		}
		if _, err := d.app.RunPhase(); err != nil {
			t.Fatalf("RunPhase: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServerNameValidation(t *testing.T) {
	if _, err := New(Config{Name: ""}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := New(Config{Name: "a/b"}); err == nil {
		t.Error("name with / accepted")
	}
	if _, err := New(Config{Name: "a#1"}); err == nil {
		t.Error("name with # accepted")
	}
}

func TestIDExtraction(t *testing.T) {
	if got := ServerOfApp("rutgers#12"); got != "rutgers" {
		t.Errorf("ServerOfApp = %q", got)
	}
	if got := ServerOfApp("noseparator"); got != "" {
		t.Errorf("ServerOfApp without # = %q", got)
	}
	if got := ServerOfClient("caltech/client-3"); got != "caltech" {
		t.Errorf("ServerOfClient = %q", got)
	}
}

func TestAppRegistrationBuildsACL(t *testing.T) {
	d := deploy(t)
	appID := d.app.AppID()
	if got := d.srv.PrivilegeName("alice", appID); got != "steer" {
		t.Errorf("alice privilege = %q", got)
	}
	if got := d.srv.PrivilegeName("bob", appID); got != "monitor" {
		t.Errorf("bob privilege = %q", got)
	}
	if got := d.srv.PrivilegeName("eve", appID); got != "none" {
		t.Errorf("eve privilege = %q", got)
	}
}

func TestAppsVisibilityFollowsACL(t *testing.T) {
	d := deploy(t)
	alice := d.login(t, "alice")
	eve := d.login(t, "eve")
	if apps := d.srv.Apps(context.Background(), alice.User); len(apps) != 1 || apps[0].Privilege != "steer" {
		t.Errorf("alice apps = %v", apps)
	}
	if apps := d.srv.Apps(context.Background(), eve.User); len(apps) != 0 {
		t.Errorf("eve apps = %v (ACL leak)", apps)
	}
}

func TestConnectAndCommandRoundTrip(t *testing.T) {
	d := deploy(t)
	alice := d.login(t, "alice")
	appID := d.connect(t, alice)

	// Acquire the steering lock, then steer.
	granted, _, err := d.srv.LockOp(context.Background(), alice, true)
	if err != nil || !granted {
		t.Fatalf("lock: %v %v", granted, err)
	}
	_, err = d.srv.SubmitCommand(context.Background(), alice, "set_param", []wire.Param{
		{Key: "name", Value: "source_freq"}, {Key: "value", Value: "0.2"},
	})
	if err != nil {
		t.Fatalf("SubmitCommand: %v", err)
	}

	var resp *wire.Message
	d.pump(t, func() bool {
		for _, m := range drained(alice.Buffer) {
			if m.Kind == wire.KindResponse && m.Op == "set_param" {
				resp = m
				return true
			}
		}
		return false
	})
	if resp.App != appID {
		t.Errorf("response app = %q", resp.App)
	}
	if v := d.app.Runtime().Params().MustGet("source_freq"); v != 0.2 {
		t.Errorf("param = %v after steering", v)
	}
}

func TestUpdatesReachConnectedClients(t *testing.T) {
	d := deploy(t)
	alice := d.login(t, "alice")
	d.connect(t, alice)
	var sawUpdate bool
	d.pump(t, func() bool {
		for _, m := range drained(alice.Buffer) {
			if m.Kind == wire.KindUpdate {
				sawUpdate = true
			}
		}
		return sawUpdate
	})
}

func TestMonitorCannotSteer(t *testing.T) {
	d := deploy(t)
	bob := d.login(t, "bob")
	d.connect(t, bob)
	_, err := d.srv.SubmitCommand(context.Background(), bob, "set_param", []wire.Param{
		{Key: "name", Value: "source_freq"}, {Key: "value", Value: "0.3"},
	})
	if !errors.Is(err, ErrDenied) {
		t.Errorf("monitor steering err = %v, want ErrDenied", err)
	}
	// Monitor-level queries are fine.
	if _, err := d.srv.SubmitCommand(context.Background(), bob, "status", nil); err != nil {
		t.Errorf("monitor status err = %v", err)
	}
	// Monitor cannot take the lock either.
	if _, _, err := d.srv.LockOp(context.Background(), bob, true); !errors.Is(err, ErrDenied) {
		t.Errorf("monitor lock err = %v", err)
	}
}

func TestSteeringRequiresLock(t *testing.T) {
	d := deploy(t)
	alice := d.login(t, "alice")
	d.connect(t, alice)
	_, err := d.srv.SubmitCommand(context.Background(), alice, "set_param", []wire.Param{
		{Key: "name", Value: "source_freq"}, {Key: "value", Value: "0.3"},
	})
	if !errors.Is(err, ErrNeedLock) {
		t.Errorf("steer without lock: %v, want ErrNeedLock", err)
	}
}

func TestOnlyOneDriverAtATime(t *testing.T) {
	d := deploy(t)
	alice := d.login(t, "alice")
	d.connect(t, alice)
	alice2 := d.login(t, "alice") // second portal, same user
	d.connect(t, alice2)

	if granted, _, _ := d.srv.LockOp(context.Background(), alice, true); !granted {
		t.Fatal("first lock denied")
	}
	granted, holder, _ := d.srv.LockOp(context.Background(), alice2, true)
	if granted {
		t.Fatal("two clients hold the steering lock")
	}
	if holder != alice.ClientID {
		t.Errorf("holder = %q", holder)
	}
	// Lock released -> second client may steer.
	if _, _, err := d.srv.LockOp(context.Background(), alice, false); err != nil {
		t.Fatal(err)
	}
	if granted, _, _ := d.srv.LockOp(context.Background(), alice2, true); !granted {
		t.Error("lock not acquirable after release")
	}
}

func TestUnknownAppConnect(t *testing.T) {
	d := deploy(t)
	alice := d.login(t, "alice")
	if _, err := d.srv.ConnectApp(context.Background(), alice, "rutgers#999"); !errors.Is(err, ErrUnknownApp) {
		t.Errorf("connect unknown local app: %v", err)
	}
	if _, err := d.srv.ConnectApp(context.Background(), alice, "caltech#1"); !errors.Is(err, ErrUnknownApp) {
		t.Errorf("connect remote app without federation: %v", err)
	}
}

func TestCommandWithoutConnect(t *testing.T) {
	d := deploy(t)
	alice := d.login(t, "alice")
	if _, err := d.srv.SubmitCommand(context.Background(), alice, "status", nil); !errors.Is(err, ErrNotConnected) {
		t.Errorf("command without connect: %v", err)
	}
}

func TestCollaborationSharing(t *testing.T) {
	d := deploy(t)
	alice := d.login(t, "alice")
	bob := d.login(t, "bob")
	d.connect(t, alice)
	d.connect(t, bob)
	d.srv.LockOp(context.Background(), alice, true)

	// Alice's responses are shared with bob (both collaboration-enabled).
	if _, err := d.srv.SubmitCommand(context.Background(), alice, "status", nil); err != nil {
		t.Fatal(err)
	}
	var bobSaw bool
	d.pump(t, func() bool {
		for _, m := range drained(bob.Buffer) {
			if m.Kind == wire.KindResponse && m.Op == "status" && m.Client == alice.ClientID {
				bobSaw = true
			}
		}
		return bobSaw
	})

	// Alice disables collaboration; her next response stays private.
	if err := d.srv.SetCollaboration(alice, false); err != nil {
		t.Fatal(err)
	}
	if _, err := d.srv.SubmitCommand(context.Background(), alice, "status", nil); err != nil {
		t.Fatal(err)
	}
	var aliceGot bool
	d.pump(t, func() bool {
		for _, m := range drained(alice.Buffer) {
			if m.Kind == wire.KindResponse && m.Op == "status" {
				aliceGot = true
			}
		}
		return aliceGot
	})
	for _, m := range drained(bob.Buffer) {
		if m.Kind == wire.KindResponse && m.Client == alice.ClientID {
			t.Error("private response leaked to bob")
		}
	}
}

func TestChatAndWhiteboard(t *testing.T) {
	d := deploy(t)
	alice := d.login(t, "alice")
	bob := d.login(t, "bob")
	d.connect(t, alice)
	d.connect(t, bob)

	if err := d.srv.Chat(context.Background(), alice, "hello bob"); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range drained(bob.Buffer) {
		if m.Kind == wire.KindChat && m.Text == "hello bob" {
			found = true
		}
	}
	if !found {
		t.Error("chat not delivered")
	}

	if err := d.srv.Whiteboard(context.Background(), alice, []byte("stroke-1")); err != nil {
		t.Fatal(err)
	}
	// A latecomer replays the whiteboard on join.
	carol := d.login(t, "alice")
	d.connect(t, carol)
	var replayed bool
	for _, m := range drained(carol.Buffer) {
		if m.Kind == wire.KindWhiteboard && string(m.Data) == "stroke-1" {
			replayed = true
		}
	}
	if !replayed {
		t.Error("latecomer did not replay whiteboard")
	}
}

func TestReplayLog(t *testing.T) {
	d := deploy(t)
	alice := d.login(t, "alice")
	d.connect(t, alice)
	d.srv.LockOp(context.Background(), alice, true)
	for _, op := range []string{"status", "get_param"} {
		params := []wire.Param{}
		if op == "get_param" {
			params = append(params, wire.Param{Key: "name", Value: "source_freq"})
		}
		if _, err := d.srv.SubmitCommand(context.Background(), alice, op, params); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := d.srv.Replay(alice, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Commands are archived immediately at the client's server.
	ops := map[string]bool{}
	for _, e := range entries {
		ops[e.Msg.Op] = true
	}
	if !ops["status"] || !ops["get_param"] {
		t.Errorf("replay missing commands: %v", ops)
	}
}

func TestRecordOwnership(t *testing.T) {
	d := deploy(t)
	alice := d.login(t, "alice")
	bob := d.login(t, "bob")
	d.connect(t, alice)
	d.connect(t, bob)
	d.srv.LockOp(context.Background(), alice, true)

	if _, err := d.srv.SubmitCommand(context.Background(), alice, "status", nil); err != nil {
		t.Fatal(err)
	}
	d.pump(t, func() bool {
		recs, _ := d.srv.QueryRecords(alice, "responses", nil)
		return len(recs) > 0
	})

	// Response records belong to the requesting user; bob cannot see them.
	recs, err := d.srv.QueryRecords(bob, "responses", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Owner == "alice" {
			t.Error("bob can read alice's response records")
		}
	}

	// Periodic update records: owned by the app owner (alice, first steer
	// user) with read-only grants for all ACL users, so bob sees them.
	d.pump(t, func() bool {
		recs, _ := d.srv.QueryRecords(bob, "updates", nil)
		return len(recs) > 0
	})
	recs, _ = d.srv.QueryRecords(bob, "updates", nil)
	if recs[0].Owner != "alice" {
		t.Errorf("update record owner = %q, want alice", recs[0].Owner)
	}
}

func TestAppCloseNotifiesGroupAndCleansUp(t *testing.T) {
	d := deploy(t)
	alice := d.login(t, "alice")
	appID := d.connect(t, alice)
	d.srv.LockOp(context.Background(), alice, true)

	d.app.Close()
	deadline := time.Now().Add(2 * time.Second)
	closed := false
	for time.Now().Before(deadline) && !closed {
		for _, m := range drained(alice.Buffer) {
			if m.Kind == wire.KindEvent && m.Op == "app-closed" {
				closed = true
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !closed {
		t.Fatal("group never heard app-closed")
	}
	if len(d.srv.LocalAppIDs()) != 0 {
		t.Error("closed app still listed")
	}
	if _, held := d.srv.Locks().Holder(appID); held {
		t.Error("lock survived app close")
	}
	if got := d.srv.PrivilegeName("alice", appID); got != "none" {
		t.Error("ACL survived app close")
	}
}

func TestLogoutReleasesLock(t *testing.T) {
	d := deploy(t)
	alice := d.login(t, "alice")
	appID := d.connect(t, alice)
	d.srv.LockOp(context.Background(), alice, true)
	d.srv.Logout(context.Background(), alice)
	if _, held := d.srv.Locks().Holder(appID); held {
		t.Error("lock survived logout")
	}
	if _, ok := d.srv.Sessions().Peek(alice.ClientID); ok {
		t.Error("session survived logout")
	}
}

func TestReapIdleSessions(t *testing.T) {
	d := deploy(t)
	alice := d.login(t, "alice")
	appID := d.connect(t, alice)
	d.srv.LockOp(context.Background(), alice, true)
	bob := d.login(t, "bob")
	d.connect(t, bob)

	// alice goes idle; bob keeps polling.
	time.Sleep(30 * time.Millisecond)
	d.srv.Sessions().Get(bob.ClientID) // refreshes bob's activity

	reaped := d.srv.ReapIdleSessions(20 * time.Millisecond)
	if reaped != 1 {
		t.Fatalf("reaped %d sessions, want 1", reaped)
	}
	if _, ok := d.srv.Sessions().Peek(alice.ClientID); ok {
		t.Error("idle session survived the janitor")
	}
	if _, ok := d.srv.Sessions().Peek(bob.ClientID); !ok {
		t.Error("active session was reaped")
	}
	if _, held := d.srv.Locks().Holder(appID); held {
		t.Error("idle session's lock survived the janitor")
	}
	members := d.srv.Hub().Group(appID).Members()
	for _, m := range members {
		if m == alice.ClientID {
			t.Error("idle session still in the collaboration group")
		}
	}
}

func TestStartJanitorLoop(t *testing.T) {
	d := deploy(t)
	alice := d.login(t, "alice")
	stop := d.srv.StartJanitor(10*time.Millisecond, 20*time.Millisecond)
	defer stop()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := d.srv.Sessions().Peek(alice.ClientID); !ok {
			stop()
			stop() // idempotent
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("janitor never reaped the idle session")
}

func TestForgedCapabilityRejected(t *testing.T) {
	d := deploy(t)
	alice := d.login(t, "alice")
	appID := d.connect(t, alice)
	// Swap in a forged capability claiming steer; the MAC won't verify.
	alice.Connect(appID, auth.Capability{
		User: "alice", App: appID, Priv: auth.Steer, Server: "rutgers", Expiry: 1 << 62,
	})
	if _, err := d.srv.SubmitCommand(context.Background(), alice, "status", nil); !errors.Is(err, auth.ErrBadToken) {
		t.Errorf("command with forged capability: %v, want ErrBadToken", err)
	}
}
