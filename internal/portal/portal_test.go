package portal

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"discover/internal/app"
	"discover/internal/appproto"
	"discover/internal/server"
	"discover/internal/wire"
)

// testEnv runs a server, one application (pumped continuously) and the
// HTTP front end.
type testEnv struct {
	srv   *server.Server
	appID string
	base  string
}

func newEnv(t *testing.T) *testEnv {
	t.Helper()
	s, err := server.New(server.Config{Name: "rutgers", Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ListenDaemon("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.Auth().SetUserSecret("alice", "pw")
	s.Auth().SetUserSecret("bob", "pw")

	rt, err := app.NewRuntime(app.Config{
		Name: "wave", Kernel: app.NewSeismic1D(64), ComputeSteps: 2,
		Users: []app.UserGrant{
			{User: "alice", Privilege: "steer"},
			{User: "bob", Privilege: "interact"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	as, err := appproto.Dial(context.Background(), s.Daemon().Addr(), rt,
		appproto.WithPhaseDelay(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		as.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
		as.Close()
	})

	ts := httptest.NewServer(s.HTTPHandler())
	t.Cleanup(ts.Close)
	deadline := time.Now().Add(2 * time.Second)
	for len(s.LocalAppIDs()) == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	ids := s.LocalAppIDs()
	if len(ids) == 0 {
		t.Fatal("app never registered")
	}
	return &testEnv{srv: s, appID: ids[0], base: ts.URL}
}

func TestPortalLoginAndApps(t *testing.T) {
	env := newEnv(t)
	c := New(env.base)
	ctx := context.Background()
	if err := c.Login(ctx, "alice", "pw"); err != nil {
		t.Fatal(err)
	}
	if c.ClientID() == "" {
		t.Fatal("no client id")
	}
	apps, err := c.Apps(ctx)
	if err != nil || len(apps) != 1 {
		t.Fatalf("Apps = %v, %v", apps, err)
	}
	if apps[0].ID != env.appID {
		t.Errorf("app id = %q", apps[0].ID)
	}
	if err := c.Login(ctx, "alice", "wrong"); err == nil {
		t.Error("bad login succeeded")
	}
}

func TestPortalFullSteering(t *testing.T) {
	env := newEnv(t)
	c := New(env.base)
	ctx := context.Background()
	if err := c.Login(ctx, "alice", "pw"); err != nil {
		t.Fatal(err)
	}
	priv, err := c.ConnectApp(ctx, env.appID)
	if err != nil || priv != "steer" {
		t.Fatalf("ConnectApp = %q, %v", priv, err)
	}

	var updates sync.Map
	c.StartPump(func(m *wire.Message) {
		if m.Kind == wire.KindUpdate {
			updates.Store(m.Seq, true)
		}
	})
	defer c.StopPump()

	granted, _, err := c.AcquireLock(ctx)
	if err != nil || !granted {
		t.Fatalf("AcquireLock = %v, %v", granted, err)
	}

	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	resp, err := c.Do(wctx, "set_param", map[string]string{"name": "source_freq", "value": "0.12"})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if resp.Kind != wire.KindResponse {
		t.Fatalf("steering response = %v (%s)", resp, resp.Text)
	}

	// get_param reflects the change.
	resp, err = c.Do(wctx, "get_param", map[string]string{"name": "source_freq"})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := resp.GetFloat("value"); !ok || v != 0.12 {
		t.Errorf("get_param = %v", resp)
	}

	// Updates flow through the pump.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		n := 0
		updates.Range(func(_, _ any) bool { n++; return true })
		if n > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	n := 0
	updates.Range(func(_, _ any) bool { n++; return true })
	if n == 0 {
		t.Error("no updates via pump")
	}

	if err := c.ReleaseLock(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.DisconnectApp(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Logout(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestPortalLockConflictAndPrivilege(t *testing.T) {
	env := newEnv(t)
	ctx := context.Background()
	a, b := New(env.base), New(env.base)
	if err := a.Login(ctx, "alice", "pw"); err != nil {
		t.Fatal(err)
	}
	if err := b.Login(ctx, "bob", "pw"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ConnectApp(ctx, env.appID); err != nil {
		t.Fatal(err)
	}
	priv, err := b.ConnectApp(ctx, env.appID)
	if err != nil || priv != "interact" {
		t.Fatalf("bob priv = %q, %v", priv, err)
	}

	// bob (interact) cannot lock or steer.
	if _, _, err := b.AcquireLock(ctx); !IsDenied(err) {
		t.Errorf("bob lock err = %v", err)
	}
	if _, err := b.SetParam(ctx, "source_freq", 0.3); !IsDenied(err) {
		t.Errorf("bob steer err = %v", err)
	}
	// bob can interact.
	if _, err := b.Command(ctx, "sensor", map[string]string{"name": "metrics"}); err != nil {
		t.Errorf("bob sensor err = %v", err)
	}

	// alice steering without the lock conflicts.
	if _, err := a.SetParam(ctx, "source_freq", 0.3); !IsLockConflict(err) {
		t.Errorf("lockless steer err = %v", err)
	}
	if granted, _, _ := a.AcquireLock(ctx); !granted {
		t.Fatal("alice lock denied")
	}
	// bob sees alice as holder... through error text; just check conflict.
	if _, err := a.SetParam(ctx, "source_freq", 0.3); err != nil {
		t.Errorf("steer with lock: %v", err)
	}
}

func TestPortalCollaborationAndChat(t *testing.T) {
	env := newEnv(t)
	ctx := context.Background()
	a, b := New(env.base), New(env.base)
	a.Login(ctx, "alice", "pw")
	b.Login(ctx, "bob", "pw")
	a.ConnectApp(ctx, env.appID)
	b.ConnectApp(ctx, env.appID)

	chats := make(chan string, 8)
	b.StartPump(func(m *wire.Message) {
		if m.Kind == wire.KindChat {
			chats <- m.Text
		}
	})
	defer b.StopPump()

	if err := a.Chat(ctx, "hi bob"); err != nil {
		t.Fatal(err)
	}
	select {
	case text := <-chats:
		if text != "hi bob" {
			t.Errorf("chat = %q", text)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("chat never arrived")
	}

	if err := a.Whiteboard(ctx, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if err := a.ShareView(ctx, []byte("view")); err != nil {
		t.Fatal(err)
	}
	if err := a.SetCollaboration(ctx, false); err != nil {
		t.Fatal(err)
	}
	if err := a.JoinSubGroup(ctx, "viz"); err != nil {
		t.Fatal(err)
	}
	users, err := a.Users(ctx)
	if err != nil || len(users) != 2 {
		t.Errorf("Users = %v, %v", users, err)
	}
}

func TestPortalReplayAndRecords(t *testing.T) {
	env := newEnv(t)
	ctx := context.Background()
	c := New(env.base)
	c.Login(ctx, "alice", "pw")
	c.ConnectApp(ctx, env.appID)
	c.StartPump(nil)
	defer c.StopPump()

	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if _, err := c.Do(wctx, "status", nil); err != nil {
		t.Fatal(err)
	}
	rr, err := c.Replay(ctx, 0)
	if err != nil || len(rr.Entries) == 0 {
		t.Fatalf("Replay = %d entries, %v", len(rr.Entries), err)
	}
	recs, err := c.Records(ctx, "responses", nil)
	if err != nil || len(recs) == 0 {
		t.Fatalf("Records = %v, %v", recs, err)
	}
	if recs[0].Owner != "alice" {
		t.Errorf("record owner = %q", recs[0].Owner)
	}
	if _, err := c.Records(ctx, "nosuch", nil); err == nil {
		t.Error("unknown table accepted")
	}
}

// TestDetachableClient exercises the paper's "detachable client portals":
// disconnect, lose the client object entirely, re-attach elsewhere and
// find the session, its buffered messages and its application binding
// intact.
func TestDetachableClient(t *testing.T) {
	env := newEnv(t)
	ctx := context.Background()
	c := New(env.base)
	if err := c.Login(ctx, "alice", "pw"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ConnectApp(ctx, env.appID); err != nil {
		t.Fatal(err)
	}
	c.StartPump(nil)
	handle := c.Detach() // stops the pump, session lives on at the server
	c = nil              // the old portal is gone

	// Messages keep accumulating in the server-side buffer while detached.
	time.Sleep(100 * time.Millisecond)

	// A fresh portal (think: another browser) resumes the session.
	resumed := New(env.base)
	app, priv, err := resumed.Attach(ctx, handle)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if app != env.appID || priv != "steer" {
		t.Errorf("resumed binding = %q/%q", app, priv)
	}
	if resumed.ClientID() != handle.ClientID {
		t.Errorf("resumed client id = %q", resumed.ClientID())
	}
	msgs, err := resumed.Poll(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var updates int
	for _, m := range msgs {
		if m.Kind == wire.KindUpdate {
			updates++
		}
	}
	if updates == 0 {
		t.Error("no updates buffered across the detach window")
	}
	// The resumed session can steer straight away (capability intact).
	resumed.StartPump(nil)
	defer resumed.StopPump()
	if granted, _, err := resumed.AcquireLock(ctx); err != nil || !granted {
		t.Fatalf("lock after attach: %v %v", granted, err)
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	resp, err := resumed.Do(wctx, "set_param", map[string]string{"name": "source_freq", "value": "0.21"})
	if err != nil || resp.Kind != wire.KindResponse {
		t.Fatalf("steer after attach: %v %v", resp, err)
	}

	// A forged token cannot attach.
	thief := New(env.base)
	bad := handle
	bad.Token = "forged"
	if _, _, err := thief.Attach(ctx, bad); err == nil {
		t.Error("attach with forged token succeeded")
	}
	// A valid token of a DIFFERENT user cannot attach to this session.
	other := New(env.base)
	if err := other.Login(ctx, "bob", "pw"); err != nil {
		t.Fatal(err)
	}
	cross := other.Detach()
	cross.ClientID = handle.ClientID // bob's token, alice's session
	if _, _, err := thief.Attach(ctx, cross); err == nil {
		t.Error("cross-user attach succeeded")
	}
}

func TestPortalHelpersAndOptions(t *testing.T) {
	env := newEnv(t)
	ctx := context.Background()
	hc := &http.Client{}
	c := New(env.base, WithHTTPClient(hc))
	if err := c.Login(ctx, "alice", "pw"); err != nil {
		t.Fatal(err)
	}
	if c.App() != "" {
		t.Error("App before connect nonempty")
	}
	if _, err := c.ConnectApp(ctx, env.appID); err != nil {
		t.Fatal(err)
	}
	if c.App() != env.appID {
		t.Errorf("App = %q", c.App())
	}
	c.StartPump(nil)
	defer c.StopPump()
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()

	// Status and GetParam wrappers.
	seq, err := c.Status(wctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitResponse(wctx, seq); err != nil {
		t.Fatal(err)
	}
	seq, err = c.GetParam(wctx, "source_freq")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.WaitResponse(wctx, seq)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := resp.GetFloat("value"); !ok || v != 0.05 {
		t.Errorf("GetParam = %v", resp)
	}

	// WaitResponse cancellation path.
	cctx, ccancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer ccancel()
	if _, err := c.WaitResponse(cctx, 999999); err == nil {
		t.Error("WaitResponse for unknown seq did not time out")
	}

	// API error text surfaces through the error value.
	bad := New(env.base)
	err = bad.Login(ctx, "alice", "nope")
	if err == nil || !IsDenied(err) || err.Error() == "" {
		t.Errorf("login error = %v", err)
	}
}

func TestPortalUnauthenticated(t *testing.T) {
	env := newEnv(t)
	ctx := context.Background()
	c := New(env.base)
	if _, err := c.Apps(ctx); err == nil {
		t.Error("Apps without login succeeded")
	}
	if _, err := c.Command(ctx, "status", nil); err == nil {
		t.Error("Command without login succeeded")
	}
	if _, err := c.Do(ctx, "status", nil); err == nil {
		t.Error("Do without pump/login succeeded")
	}
}

// TestPortalStreamEvents drives the full portal surface over the SSE
// streaming pump instead of the poll loop: request/response correlation
// (Do/WaitResponse), collaboration events, and update delivery all ride
// one long-lived stream connection.
func TestPortalStreamEvents(t *testing.T) {
	env := newEnv(t)
	ctx := context.Background()
	a, b := New(env.base), New(env.base)
	if err := a.Login(ctx, "alice", "pw"); err != nil {
		t.Fatal(err)
	}
	if err := b.Login(ctx, "bob", "pw"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ConnectApp(ctx, env.appID); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ConnectApp(ctx, env.appID); err != nil {
		t.Fatal(err)
	}

	chats := make(chan string, 8)
	var updates sync.Map
	a.StreamEvents(func(m *wire.Message) {
		switch m.Kind {
		case wire.KindChat:
			chats <- m.Text
		case wire.KindUpdate:
			updates.Store(m.Seq, true)
		}
	})
	defer a.StopPump()

	// Command round trip: the response arrives over the stream and wakes
	// the WaitResponse caller exactly as the poll pump would.
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if granted, _, err := a.AcquireLock(ctx); err != nil || !granted {
		t.Fatalf("AcquireLock = %v, %v", granted, err)
	}
	resp, err := a.Do(wctx, "set_param", map[string]string{"name": "source_freq", "value": "0.17"})
	if err != nil || resp.Kind != wire.KindResponse {
		t.Fatalf("Do over stream: %v, %v", resp, err)
	}

	// Collaboration events flow through too.
	if err := b.Chat(ctx, "hi alice"); err != nil {
		t.Fatal(err)
	}
	select {
	case text := <-chats:
		if text != "hi alice" {
			t.Errorf("chat = %q", text)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("chat never arrived over the stream")
	}

	if !a.Streaming() {
		t.Error("Streaming() = false while the SSE connection is live")
	}

	// Updates accumulate without any polling.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		n := 0
		updates.Range(func(_, _ any) bool { n++; return true })
		if n > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	n := 0
	updates.Range(func(_, _ any) bool { n++; return true })
	if n == 0 {
		t.Error("no updates via stream")
	}
}

// TestPortalStreamReconnects severs the live SSE connection out from
// under the portal and proves the auto-reconnect loop resumes delivery:
// events published after the cut still arrive, spliced by the resume
// token rather than lost or duplicated.
func TestPortalStreamReconnects(t *testing.T) {
	env := newEnv(t)
	// A second front end to the same server whose client connections the
	// test can sever on demand.
	ts := httptest.NewServer(env.srv.HTTPHandler())
	defer ts.Close()

	ctx := context.Background()
	a, b := New(ts.URL), New(ts.URL)
	if err := a.Login(ctx, "alice", "pw"); err != nil {
		t.Fatal(err)
	}
	if err := b.Login(ctx, "bob", "pw"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ConnectApp(ctx, env.appID); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ConnectApp(ctx, env.appID); err != nil {
		t.Fatal(err)
	}

	chats := make(chan string, 16)
	a.StreamEvents(func(m *wire.Message) {
		if m.Kind == wire.KindChat {
			chats <- m.Text
		}
	})
	defer a.StopPump()

	recv := func(want string) {
		t.Helper()
		for {
			select {
			case text := <-chats:
				if text == want {
					return
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("chat %q never arrived", want)
			}
		}
	}
	if err := b.Chat(ctx, "before"); err != nil {
		t.Fatal(err)
	}
	recv("before")

	// Sever every connection under the portal's feet; the next chat must
	// still arrive via the reconnect (carrying the resume token).
	ts.CloseClientConnections()
	if err := b.Chat(ctx, "after"); err != nil {
		t.Fatal(err)
	}
	recv("after")
}

// holdingTransport holds each command POST's reply until the poll pump
// has fetched the command's response and dispatched it: the pump's next
// poll request after the reply that carried the response proves the
// dispatch finished. Command therefore returns only after its response
// was dispatched — the order that used to send the response to onEvent
// and leave Do waiting out its deadline.
type holdingTransport struct {
	mu       sync.Mutex
	seen     map[uint64]bool // response seqs poll replies carried
	carried  bool            // a poll reply carried the held command's response
	want     uint64          // seq of the held command
	released chan struct{}   // closed on the first poll after carried
}

func (h *holdingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	poll := strings.HasSuffix(req.URL.Path, "/events")
	if poll {
		h.mu.Lock()
		if h.carried && h.released != nil {
			close(h.released)
			h.released = nil
		}
		h.mu.Unlock()
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	switch {
	case poll:
		var pr server.EventsResponse
		json.Unmarshal(body, &pr)
		h.mu.Lock()
		for _, m := range pr.Messages {
			if m.Kind == wire.KindResponse {
				h.seen[m.Seq] = true
				h.carried = h.carried || m.Seq == h.want
			}
		}
		h.mu.Unlock()
	case strings.HasSuffix(req.URL.Path, "/command"):
		var cr server.CommandResponse
		json.Unmarshal(body, &cr)
		released := make(chan struct{})
		h.mu.Lock()
		h.want, h.carried, h.released = cr.Seq, h.seen[cr.Seq], released
		h.mu.Unlock()
		select {
		case <-released:
		case <-time.After(10 * time.Second):
			return nil, errors.New("the pump never dispatched the command's response")
		}
	}
	return resp, nil
}

// TestDoClaimsResponseBeforeCommandReturns forces a command's response
// to be dispatched before Command returns: Do must still get it, and
// onEvent must not. A response nobody waits for still reaches onEvent,
// and promptly.
func TestDoClaimsResponseBeforeCommandReturns(t *testing.T) {
	env := newEnv(t)
	ctx := context.Background()
	c := New(env.base, WithHTTPClient(&http.Client{Transport: &holdingTransport{seen: map[uint64]bool{}}}))
	if err := c.Login(ctx, "alice", "pw"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ConnectApp(ctx, env.appID); err != nil {
		t.Fatal(err)
	}
	events := make(chan *wire.Message, 64)
	c.StartPump(func(m *wire.Message) {
		if m.Kind == wire.KindResponse {
			events <- m
		}
	})
	defer c.StopPump()

	wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	resp, err := c.Do(wctx, "status", nil)
	if err != nil || resp.Kind != wire.KindResponse {
		t.Fatalf("Do = %v, %v", resp, err)
	}
	seq, err := c.Command(ctx, "status", nil) // nobody waits for this one
	if err != nil {
		t.Fatal(err)
	}
	returned := time.Now()
	select {
	case m := <-events:
		if m.Seq != seq {
			t.Fatalf("onEvent got response %d, want only the unwaited %d (Do's was %d)", m.Seq, seq, resp.Seq)
		}
		if d := time.Since(returned); d > 100*time.Millisecond {
			t.Fatalf("the unwaited response reached onEvent %v after Command returned", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the response nobody waited for never reached onEvent")
	}
}

// TestPortalRetriesStaleKeepAlive cuts the client's idle keep-alive
// connection: the next POST fails on it before any response byte, is
// sent once more on a fresh connection, and runs exactly once.
func TestPortalRetriesStaleKeepAlive(t *testing.T) {
	env := newEnv(t)
	var chats atomic.Int32
	h := env.srv.HTTPHandler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/chat") {
			chats.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	ctx := context.Background()
	c := New(ts.URL, WithHTTPClient(&http.Client{Transport: &http.Transport{}}))
	if err := c.Login(ctx, "alice", "pw"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ConnectApp(ctx, env.appID); err != nil {
		t.Fatal(err)
	}
	ts.CloseClientConnections()
	if err := c.Chat(ctx, "after the cut"); err != nil {
		t.Fatalf("Chat on a cut keep-alive connection: %v", err)
	}
	if n := chats.Load(); n != 1 {
		t.Fatalf("the server ran the chat %d times, want 1", n)
	}
}

// TestPortalKeepAlive checks that sequential calls whose responses are
// not decoded still reuse one TCP connection.
func TestPortalKeepAlive(t *testing.T) {
	env := newEnv(t)
	var conns atomic.Int32
	ts := httptest.NewUnstartedServer(env.srv.HTTPHandler())
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	ctx := context.Background()
	c := New(ts.URL, WithHTTPClient(&http.Client{Transport: &http.Transport{}}))
	if err := c.Login(ctx, "alice", "pw"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ConnectApp(ctx, env.appID); err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		if err := c.Chat(ctx, "hello"); err != nil {
			t.Fatal(err)
		}
		if err := c.Whiteboard(ctx, []byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.DisconnectApp(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Logout(ctx); err != nil {
		t.Fatal(err)
	}
	if got := conns.Load(); got != 1 {
		t.Fatalf("%d sequential calls opened %d connections, want 1", 2*n+4, got)
	}
}
