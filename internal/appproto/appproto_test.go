package appproto

import (
	"context"
	"fmt"
	gonet "net"
	"sync"
	"testing"
	"time"

	"discover/internal/app"
	"discover/internal/netsim"
	"discover/internal/wire"
)

// recordingHandler implements Handler for tests.
type recordingHandler struct {
	mu         sync.Mutex
	counter    int
	registered []string
	closed     []string
	updates    map[string][]*wire.Message
	responses  map[string][]*wire.Message
	rejectAll  bool
	regCh      chan string
	respCh     chan *wire.Message
}

func newRecordingHandler() *recordingHandler {
	return &recordingHandler{
		updates:   make(map[string][]*wire.Message),
		responses: make(map[string][]*wire.Message),
		regCh:     make(chan string, 16),
		respCh:    make(chan *wire.Message, 1024),
	}
}

func (h *recordingHandler) AssignAppID(reg Registration) (string, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.rejectAll {
		return "", fmt.Errorf("registrations disabled")
	}
	h.counter++
	return fmt.Sprintf("127.0.0.1:7000#%d", h.counter), nil
}

func (h *recordingHandler) AppRegistered(ep *AppEndpoint) {
	h.mu.Lock()
	h.registered = append(h.registered, ep.ID())
	h.mu.Unlock()
	h.regCh <- ep.ID()
}

func (h *recordingHandler) AppClosed(appID string, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = append(h.closed, appID)
}

func (h *recordingHandler) HandleUpdate(appID string, m *wire.Message) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.updates[appID] = append(h.updates[appID], m)
}

func (h *recordingHandler) HandleResponse(appID string, m *wire.Message) {
	h.mu.Lock()
	h.responses[appID] = append(h.responses[appID], m)
	h.mu.Unlock()
	h.respCh <- m
}

func (h *recordingHandler) updateCount(appID string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.updates[appID])
}

func (h *recordingHandler) closedApps() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.closed...)
}

func newTestDaemon(t *testing.T) (*Daemon, *recordingHandler) {
	t.Helper()
	h := newRecordingHandler()
	d := NewDaemon(h)
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d, h
}

func newTestSession(t *testing.T, d *Daemon, opts ...DialOption) *Session {
	t.Helper()
	rt, err := app.NewRuntime(app.Config{
		Name:         "wave",
		Kernel:       app.NewSeismic1D(64),
		ComputeSteps: 2,
		Users:        []app.UserGrant{{User: "alice", Privilege: "steer"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Dial(context.Background(), d.Addr(), rt, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestRegistrationHandshake(t *testing.T) {
	d, h := newTestDaemon(t)
	s := newTestSession(t, d)

	if s.AppID() == "" {
		t.Fatal("no app id assigned")
	}
	select {
	case id := <-h.regCh:
		if id != s.AppID() {
			t.Errorf("registered %q, session has %q", id, s.AppID())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("AppRegistered never fired")
	}
	ep, ok := d.App(s.AppID())
	if !ok {
		t.Fatal("daemon does not know the app")
	}
	reg := ep.Registration()
	if reg.Name != "wave" || reg.Kind != "seismic-1d" {
		t.Errorf("registration = %+v", reg)
	}
	if len(reg.Users) != 1 || reg.Users[0].User != "alice" {
		t.Errorf("users = %v", reg.Users)
	}
	if len(reg.Params) == 0 {
		t.Error("registration carries no interface descriptor")
	}
	if apps := d.Apps(); len(apps) != 1 {
		t.Errorf("Apps() = %v", apps)
	}
}

func TestRegistrationRejected(t *testing.T) {
	d, h := newTestDaemon(t)
	h.mu.Lock()
	h.rejectAll = true
	h.mu.Unlock()
	rt, _ := app.NewRuntime(app.Config{Name: "x", Kernel: app.NewInspiral()})
	if _, err := Dial(context.Background(), d.Addr(), rt); err == nil {
		t.Fatal("rejected registration succeeded")
	}
}

func TestPhaseLoopDeliversBufferedCommands(t *testing.T) {
	d, h := newTestDaemon(t)
	s := newTestSession(t, d)
	<-h.regCh
	ep, _ := d.App(s.AppID())

	// Buffer three commands while the app is "computing".
	for i := 0; i < 3; i++ {
		cmd := wire.NewCommand(s.AppID(), "client-1", "get_param", wire.Param{Key: "name", Value: "source_freq"})
		cmd.Seq = uint64(i + 1)
		if err := ep.Enqueue(cmd); err != nil {
			t.Fatal(err)
		}
	}
	if n := ep.BufferedCommands(); n != 3 {
		t.Fatalf("buffered = %d, want 3", n)
	}

	served, err := s.RunPhase()
	if err != nil {
		t.Fatal(err)
	}
	if served != 3 {
		t.Errorf("served %d commands, want 3", served)
	}
	if n := ep.BufferedCommands(); n != 0 {
		t.Errorf("buffer not drained: %d", n)
	}
	// All three responses must reach the handler.
	for i := 0; i < 3; i++ {
		select {
		case resp := <-h.respCh:
			if resp.Kind != wire.KindResponse {
				t.Errorf("response %d: %v", i, resp)
			}
			if v, ok := resp.GetFloat("value"); !ok || v != 0.05 {
				t.Errorf("response value = %v, %v", v, ok)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("response never arrived")
		}
	}
}

func TestCommandsEnqueuedMidPhaseWaitForNext(t *testing.T) {
	d, h := newTestDaemon(t)
	s := newTestSession(t, d)
	<-h.regCh
	ep, _ := d.App(s.AppID())

	if _, err := s.RunPhase(); err != nil { // empty phase
		t.Fatal(err)
	}
	cmd := wire.NewCommand(s.AppID(), "c", "status")
	if err := ep.Enqueue(cmd); err != nil {
		t.Fatal(err)
	}
	served, err := s.RunPhase()
	if err != nil {
		t.Fatal(err)
	}
	if served != 1 {
		t.Errorf("served %d, want 1", served)
	}
}

func TestPeriodicUpdates(t *testing.T) {
	d, h := newTestDaemon(t)
	s := newTestSession(t, d, WithUpdateEvery(2))
	<-h.regCh

	for i := 0; i < 4; i++ {
		if _, err := s.RunPhase(); err != nil {
			t.Fatal(err)
		}
	}
	// Updates at phases 2 and 4 only. Main channel is processed by the
	// daemon asynchronously; wait briefly.
	deadline := time.Now().Add(2 * time.Second)
	for h.updateCount(s.AppID()) < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := h.updateCount(s.AppID()); got != 2 {
		t.Errorf("updates = %d, want 2", got)
	}
	h.mu.Lock()
	u := h.updates[s.AppID()][0]
	h.mu.Unlock()
	if _, ok := u.GetFloat("m.step"); !ok {
		t.Error("update missing metrics")
	}
}

func TestSteeringThroughFullStack(t *testing.T) {
	d, h := newTestDaemon(t)
	s := newTestSession(t, d)
	<-h.regCh
	ep, _ := d.App(s.AppID())

	set := wire.NewCommand(s.AppID(), "c", "set_param",
		wire.Param{Key: "name", Value: "source_freq"}, wire.Param{Key: "value", Value: "0.25"})
	if err := ep.Enqueue(set); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunPhase(); err != nil {
		t.Fatal(err)
	}
	if v := s.Runtime().Params().MustGet("source_freq"); v != 0.25 {
		t.Errorf("steered param = %v, want 0.25", v)
	}
	resp := <-h.respCh
	if resp.Kind != wire.KindResponse {
		t.Errorf("steering response: %v (%s)", resp, resp.Text)
	}
}

func TestAppDisconnectNotifiesHandler(t *testing.T) {
	d, h := newTestDaemon(t)
	s := newTestSession(t, d)
	<-h.regCh
	id := s.AppID()
	s.Close()

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if closed := h.closedApps(); len(closed) == 1 && closed[0] == id {
			if _, ok := d.App(id); ok {
				t.Fatal("daemon still lists closed app")
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("AppClosed never fired")
}

func TestRunLoopWithContext(t *testing.T) {
	d, h := newTestDaemon(t)
	s := newTestSession(t, d)
	<-h.regCh

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	// Let it cycle a few phases, steering mid-run.
	time.Sleep(50 * time.Millisecond)
	ep, _ := d.App(s.AppID())
	ep.Enqueue(wire.NewCommand(s.AppID(), "c", "status"))
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Errorf("Run returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not stop on cancel")
	}
	select {
	case resp := <-h.respCh:
		if resp.Op != "status" {
			t.Errorf("unexpected response %v", resp)
		}
	case <-time.After(time.Second):
		t.Error("mid-run command never answered")
	}
}

func TestMultipleSimultaneousApplications(t *testing.T) {
	d, h := newTestDaemon(t)
	const n = 8
	sessions := make([]*Session, n)
	for i := range sessions {
		sessions[i] = newTestSession(t, d)
		<-h.regCh
	}
	ids := make(map[string]bool)
	for _, s := range sessions {
		if ids[s.AppID()] {
			t.Fatalf("duplicate app id %q", s.AppID())
		}
		ids[s.AppID()] = true
	}
	if got := len(d.Apps()); got != n {
		t.Errorf("daemon lists %d apps, want %d", got, n)
	}
	// Every app serves its own command without crosstalk.
	for _, s := range sessions {
		ep, _ := d.App(s.AppID())
		cmd := wire.NewCommand(s.AppID(), "c", "status")
		if err := ep.Enqueue(cmd); err != nil {
			t.Fatal(err)
		}
		if served, err := s.RunPhase(); err != nil || served != 1 {
			t.Errorf("app %s: served=%d err=%v", s.AppID(), served, err)
		}
	}
}

func TestBogusHelloDropped(t *testing.T) {
	d, _ := newTestDaemon(t)
	conn, err := gonet.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wc := wire.NewConn(conn)
	// A non-register hello must be dropped without a crash.
	if err := wc.Send(wire.NewUpdate("x", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := wc.Recv(); err == nil {
		t.Error("daemon answered a bogus hello")
	}
}

func TestAttachWithBadSessionRejected(t *testing.T) {
	d, _ := newTestDaemon(t)
	conn, err := gonet.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wc := wire.NewConn(conn)
	hello := &wire.Message{Kind: wire.KindRegister, Op: roleCommand, App: "nope"}
	hello.Set("session", "forged")
	if err := wc.Send(hello); err != nil {
		t.Fatal(err)
	}
	resp, err := wc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != wire.KindError || resp.Status != wire.StatusDenied {
		t.Errorf("forged attach got %v", resp)
	}
}

// TestSessionOverSimulatedWAN runs the three-channel protocol across a
// shaped link: an application at a remote compute site registering with a
// distant server, exercising WithDialFunc and the netsim write/read paths
// under the real protocol.
func TestSessionOverSimulatedWAN(t *testing.T) {
	d, h := newTestDaemon(t)

	topo := netsim.NewTopology()
	topo.SetRTT("hpc-center", "server-site", 20*time.Millisecond)
	net := netsim.New(topo)

	rt, err := app.NewRuntime(app.Config{
		Name: "wan-app", Kernel: app.NewSeismic1D(64), ComputeSteps: 1,
		Users: []app.UserGrant{{User: "alice", Privilege: "steer"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	s, err := Dial(context.Background(), d.Addr(), rt,
		WithDialFunc(func(ctx context.Context, network, addr string) (gonet.Conn, error) {
			return net.DialContext(ctx, "hpc-center", "server-site", network, addr)
		}))
	if err != nil {
		t.Fatalf("WAN dial: %v", err)
	}
	defer s.Close()
	// Registration is 3 handshakes (1 RTT each minimum).
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("registration completed in %v; WAN shaping not applied", d)
	}
	<-h.regCh

	ep, _ := d.App(s.AppID())
	ep.Enqueue(wire.NewCommand(s.AppID(), "c", "status"))
	phaseStart := time.Now()
	served, err := s.RunPhase()
	if err != nil || served != 1 {
		t.Fatalf("WAN phase: served=%d err=%v", served, err)
	}
	// The phase includes the interaction marker round trip (1 RTT).
	if d := time.Since(phaseStart); d < 20*time.Millisecond {
		t.Errorf("phase completed in %v; expected at least one RTT", d)
	}
	// All app->server traffic crossed the simulated WAN and was counted.
	if stats := net.LinkStats("hpc-center", "server-site"); stats.Msgs == 0 {
		t.Error("no WAN traffic accounted")
	}
}

func TestDaemonCloseStopsSessionRun(t *testing.T) {
	h := newRecordingHandler()
	d := NewDaemon(h)
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	rt, _ := app.NewRuntime(app.Config{
		Name: "x", Kernel: app.NewInspiral(),
		Users: []app.UserGrant{{User: "a", Privilege: "steer"}},
	})
	s, err := Dial(context.Background(), d.Addr(), rt, WithPhaseDelay(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	<-h.regCh

	done := make(chan error, 1)
	go func() { done <- s.Run(context.Background()) }()
	time.Sleep(30 * time.Millisecond)
	d.Close() // server goes away under the running application
	select {
	case err := <-done:
		if err == nil {
			t.Log("Run returned nil after daemon close (orderly close observed)")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop after daemon close")
	}
}

func TestEnqueueOverflow(t *testing.T) {
	d, h := newTestDaemon(t)
	s := newTestSession(t, d)
	<-h.regCh
	ep, _ := d.App(s.AppID())
	for i := 0; i < MaxBufferedCommands; i++ {
		if err := ep.Enqueue(wire.NewCommand(s.AppID(), "c", "status")); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	if err := ep.Enqueue(wire.NewCommand(s.AppID(), "c", "status")); err == nil {
		t.Error("overflow enqueue succeeded")
	}
}
