package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"discover/internal/wire"
)

// httpClient is a minimal test client against the API.
type httpClient struct {
	t    *testing.T
	base string
}

func (c *httpClient) post(path string, body, out any) int {
	c.t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.Post(c.base+path, "application/json", &buf)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode
}

func (c *httpClient) get(path string, out any) int {
	c.t.Helper()
	resp, err := http.Get(c.base + path)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode
}

func deployHTTP(t *testing.T, opts ...func(*Config)) (*testDeployment, *httpClient) {
	t.Helper()
	d := deploy(t, opts...)
	ts := httptest.NewServer(d.srv.HTTPHandler())
	t.Cleanup(ts.Close)
	return d, &httpClient{t: t, base: ts.URL}
}

func (c *httpClient) login(user, secret string) (LoginResponse, int) {
	var lr LoginResponse
	code := c.post("/api/v1/login", LoginRequest{User: user, Secret: secret}, &lr)
	return lr, code
}

func TestHTTPLogin(t *testing.T) {
	_, c := deployHTTP(t)
	lr, code := c.login("alice", "pw")
	if code != http.StatusOK || lr.ClientID == "" || lr.Token == "" || lr.Server != "rutgers" {
		t.Fatalf("login = %+v (%d)", lr, code)
	}
	if _, code := c.login("alice", "wrong"); code != http.StatusForbidden {
		t.Errorf("bad secret -> %d", code)
	}
	if _, code := c.login("mallory", "pw"); code != http.StatusForbidden {
		t.Errorf("unknown user -> %d", code)
	}
}

func TestHTTPFullSteeringFlow(t *testing.T) {
	d, c := deployHTTP(t)
	lr, _ := c.login("alice", "pw")

	// List apps.
	var apps AppsResponse
	if code := c.get("/api/v1/apps?client="+lr.ClientID, &apps); code != 200 {
		t.Fatalf("apps -> %d", code)
	}
	if len(apps.Apps) != 1 || apps.Apps[0].Privilege != "steer" {
		t.Fatalf("apps = %+v", apps)
	}
	appID := apps.Apps[0].ID

	// Connect (level-two auth).
	var conn ConnectResponse
	if code := c.post("/api/v1/connect", ConnectRequest{ClientID: lr.ClientID, App: appID}, &conn); code != 200 {
		t.Fatalf("connect -> %d", code)
	}
	if conn.Privilege != "steer" {
		t.Errorf("privilege = %q", conn.Privilege)
	}

	// Take the lock.
	var lock LockResponse
	c.post("/api/v1/lock", LockRequestBody{ClientID: lr.ClientID, Acquire: true}, &lock)
	if !lock.Granted {
		t.Fatalf("lock = %+v", lock)
	}

	// Steer.
	var cmdResp CommandResponse
	code := c.post("/api/v1/command", CommandRequest{
		ClientID: lr.ClientID, Op: "set_param",
		Params: map[string]string{"name": "source_freq", "value": "0.15"},
	}, &cmdResp)
	if code != 200 || cmdResp.Seq == 0 {
		t.Fatalf("command -> %d %+v", code, cmdResp)
	}

	// Drive the app, then poll for the response.
	var got *wire.Message
	for i := 0; i < 100 && got == nil; i++ {
		if _, err := d.app.RunPhase(); err != nil {
			t.Fatal(err)
		}
		var pr EventsResponse
		c.get("/api/v1/session/"+url.PathEscape(lr.ClientID)+"/events?max=50", &pr)
		for _, m := range pr.Messages {
			if m.Kind == wire.KindResponse && m.Op == "set_param" {
				got = m
			}
		}
	}
	if got == nil {
		t.Fatal("steering response never polled")
	}
	if v := d.app.Runtime().Params().MustGet("source_freq"); v != 0.15 {
		t.Errorf("param = %v", v)
	}

	// Release the lock.
	c.post("/api/v1/lock", LockRequestBody{ClientID: lr.ClientID, Acquire: false}, &lock)

	// Replay shows the archived command.
	var rr ReplayResponse
	c.get("/api/v1/replay?client="+lr.ClientID+"&from=0", &rr)
	found := false
	for _, e := range rr.Entries {
		if e.Msg.Op == "set_param" {
			found = true
		}
	}
	if !found {
		t.Error("replay missing the steering command")
	}

	// Records are visible.
	var recs RecordsResponse
	c.get("/api/v1/records?client="+lr.ClientID+"&table=responses", &recs)
	if len(recs.Records) == 0 {
		t.Error("no response records")
	}

	// Disconnect and logout.
	if code := c.post("/api/v1/disconnect", map[string]string{"clientId": lr.ClientID}, nil); code != 200 {
		t.Errorf("disconnect -> %d", code)
	}
	if code := c.post("/api/v1/logout", map[string]string{"clientId": lr.ClientID}, nil); code != 200 {
		t.Errorf("logout -> %d", code)
	}
	if code := c.get("/api/v1/apps?client="+lr.ClientID, nil); code != http.StatusUnauthorized {
		t.Errorf("apps after logout -> %d", code)
	}
}

func TestHTTPAuthRequired(t *testing.T) {
	_, c := deployHTTP(t)
	if code := c.get("/api/v1/apps?client=forged", nil); code != http.StatusUnauthorized {
		t.Errorf("forged client id -> %d", code)
	}
	if code := c.post("/api/v1/command", CommandRequest{ClientID: "forged", Op: "status"}, nil); code != http.StatusUnauthorized {
		t.Errorf("forged command -> %d", code)
	}
}

func TestHTTPPrivilegeEnforcement(t *testing.T) {
	d, c := deployHTTP(t)
	lr, _ := c.login("bob", "pw") // monitor only
	appID := d.app.AppID()
	if code := c.post("/api/v1/connect", ConnectRequest{ClientID: lr.ClientID, App: appID}, nil); code != 200 {
		t.Fatalf("connect -> %d", code)
	}
	code := c.post("/api/v1/command", CommandRequest{
		ClientID: lr.ClientID, Op: "set_param",
		Params: map[string]string{"name": "source_freq", "value": "0.3"},
	}, nil)
	if code != http.StatusForbidden {
		t.Errorf("monitor steer -> %d, want 403", code)
	}
	if code := c.post("/api/v1/lock", LockRequestBody{ClientID: lr.ClientID, Acquire: true}, nil); code != http.StatusForbidden {
		t.Errorf("monitor lock -> %d, want 403", code)
	}
}

func TestHTTPSteerWithoutLockConflicts(t *testing.T) {
	d, c := deployHTTP(t)
	lr, _ := c.login("alice", "pw")
	c.post("/api/v1/connect", ConnectRequest{ClientID: lr.ClientID, App: d.app.AppID()}, nil)
	code := c.post("/api/v1/command", CommandRequest{
		ClientID: lr.ClientID, Op: "set_param",
		Params: map[string]string{"name": "source_freq", "value": "0.3"},
	}, nil)
	if code != http.StatusConflict {
		t.Errorf("steer without lock -> %d, want 409", code)
	}
}

func TestHTTPChatCollabWhiteboard(t *testing.T) {
	d, c := deployHTTP(t)
	a, _ := c.login("alice", "pw")
	b, _ := c.login("bob", "pw")
	appID := d.app.AppID()
	c.post("/api/v1/connect", ConnectRequest{ClientID: a.ClientID, App: appID}, nil)
	c.post("/api/v1/connect", ConnectRequest{ClientID: b.ClientID, App: appID}, nil)

	if code := c.post("/api/v1/chat", ChatRequest{ClientID: a.ClientID, Text: "hi"}, nil); code != 200 {
		t.Fatalf("chat -> %d", code)
	}
	if code := c.post("/api/v1/whiteboard", WhiteboardRequest{ClientID: a.ClientID, Stroke: []byte{1, 2}}, nil); code != 200 {
		t.Fatalf("whiteboard -> %d", code)
	}
	var pr EventsResponse
	c.get("/api/v1/session/"+url.PathEscape(b.ClientID)+"/events", &pr)
	var chat, wb bool
	for _, m := range pr.Messages {
		switch m.Kind {
		case wire.KindChat:
			chat = m.Text == "hi"
		case wire.KindWhiteboard:
			wb = true
		}
	}
	if !chat || !wb {
		t.Errorf("bob polled chat=%v wb=%v", chat, wb)
	}

	// Collaboration mode + sub-group moves.
	enabled := false
	sub := "viz"
	if code := c.post("/api/v1/collab", CollabRequest{ClientID: a.ClientID, Enabled: &enabled, Sub: &sub}, nil); code != 200 {
		t.Errorf("collab -> %d", code)
	}
	if d.srv.Hub().Group(appID).Enabled(a.ClientID) {
		t.Error("collab mode not disabled")
	}
	if got := d.srv.Hub().Group(appID).Sub(a.ClientID); got != "viz" {
		t.Errorf("sub = %q", got)
	}
}

func TestHTTPUsersAndInfo(t *testing.T) {
	_, c := deployHTTP(t)
	lr, _ := c.login("alice", "pw")
	c.login("bob", "pw")
	var ur UsersResponse
	c.get("/api/v1/users?client="+lr.ClientID, &ur)
	if len(ur.Users) != 2 {
		t.Errorf("users = %v", ur.Users)
	}
	var ir InfoResponse
	c.get("/api/v1/info", &ir)
	if ir.Name != "rutgers" || ir.Apps != 1 || ir.Sessions != 2 {
		t.Errorf("info = %+v", ir)
	}
}

func TestHTTPStats(t *testing.T) {
	d, c := deployHTTP(t)
	lr, _ := c.login("alice", "pw")
	c.post("/api/v1/connect", ConnectRequest{ClientID: lr.ClientID, App: d.app.AppID()}, nil)
	c.post("/api/v1/lock", LockRequestBody{ClientID: lr.ClientID, Acquire: true}, nil)

	var stats StatsResponse
	if code := c.get("/api/v1/stats", &stats); code != 200 {
		t.Fatalf("stats -> %d", code)
	}
	if stats.Name != "rutgers" || len(stats.Apps) != 1 || len(stats.Sessions) != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	app := stats.Apps[0]
	if app.LockHolder != lr.ClientID {
		t.Errorf("lock holder = %q", app.LockHolder)
	}
	if len(app.Members) != 1 || app.Members[0] != lr.ClientID {
		t.Errorf("members = %v", app.Members)
	}
	sess := stats.Sessions[0]
	if sess.User != "alice" || sess.App != d.app.AppID() {
		t.Errorf("session stats = %+v", sess)
	}
}

func TestHTTPBadBodies(t *testing.T) {
	_, c := deployHTTP(t)
	resp, err := http.Post(c.base+"/api/v1/login", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad body -> %d", resp.StatusCode)
	}
	// Wrong method.
	resp, err = http.Get(c.base + "/api/v1/login")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET login -> %d", resp.StatusCode)
	}
}

func TestHTTPPollLongPollWakesOnPush(t *testing.T) {
	d, c := deployHTTP(t)
	lr, _ := c.login("alice", "pw")
	c.post("/api/v1/connect", ConnectRequest{ClientID: lr.ClientID, App: d.app.AppID()}, nil)
	done := make(chan EventsResponse, 1)
	go func() {
		var pr EventsResponse
		c.get("/api/v1/session/"+url.PathEscape(lr.ClientID)+"/events?wait=3s", &pr)
		done <- pr
	}()
	// Drive one phase so an update lands in the buffer.
	for i := 0; i < 3; i++ {
		d.app.RunPhase()
	}
	pr := <-done
	if len(pr.Messages) == 0 {
		t.Error("long poll returned empty despite update")
	}
}

// statsFed is a stub Federation that also implements StatsProvider, as
// the middleware substrate does.
type statsFed struct{}

func (statsFed) RemoteApps(context.Context, string) []AppInfo                    { return nil }
func (statsFed) RemotePrivilege(context.Context, string, string) (string, error) { return "", nil }
func (statsFed) ForwardCommand(context.Context, string, *wire.Message) error     { return nil }
func (statsFed) RemoteLock(context.Context, string, string, bool) (bool, string, error) {
	return false, "", nil
}
func (statsFed) ForwardCollab(context.Context, string, *wire.Message) error { return nil }
func (statsFed) Subscribe(context.Context, string) error                    { return nil }
func (statsFed) ExportApp(string)                                           {}
func (statsFed) WithdrawApp(string)                                         {}
func (statsFed) NotifyEvent(*wire.Message)                                  {}
func (statsFed) RelayStats() []RelayStats {
	return []RelayStats{{Peer: "caltech", Delivered: 70, Dropped: 2, Batches: 3, Invocations: 4}}
}
func (statsFed) WireStats() WireStats {
	return WireStats{Oneways: 9, Writes: 5, BytesOut: 4096}
}
func (statsFed) DirectoryStats() DirectoryStats {
	return DirectoryStats{Hits: 12, Misses: 3, Coalesced: 1, FanoutWorkers: 16, FanoutRounds: 4}
}

// TestHTTPStatsFederation checks that a federated server surfaces the
// substrate's relay and wire counters through GET /api/v1/stats, and that a
// standalone server omits them.
func TestHTTPStatsFederation(t *testing.T) {
	d, c := deployHTTP(t)

	var stats StatsResponse
	if code := c.get("/api/v1/stats", &stats); code != 200 {
		t.Fatalf("stats -> %d", code)
	}
	if len(stats.Relays) != 0 || stats.Wire != nil || stats.Directory != nil {
		t.Errorf("standalone server leaked federation stats: %+v", stats)
	}

	d.srv.SetFederation(statsFed{})
	stats = StatsResponse{}
	if code := c.get("/api/v1/stats", &stats); code != 200 {
		t.Fatalf("federated stats -> %d", code)
	}
	if len(stats.Relays) != 1 || stats.Relays[0].Peer != "caltech" ||
		stats.Relays[0].Delivered != 70 || stats.Relays[0].Dropped != 2 {
		t.Errorf("relays = %+v", stats.Relays)
	}
	if stats.Wire == nil || stats.Wire.Oneways != 9 || stats.Wire.BytesOut != 4096 {
		t.Errorf("wire = %+v", stats.Wire)
	}
	if stats.Directory == nil || stats.Directory.Hits != 12 || stats.Directory.Coalesced != 1 ||
		stats.Directory.FanoutWorkers != 16 {
		t.Errorf("directory = %+v", stats.Directory)
	}
}
