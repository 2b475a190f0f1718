// Package appproto implements the application↔server protocol: the
// "more optimized, custom protocol using TCP sockets" of the paper,
// carried over three channels exactly as DISCOVER defines them:
//
//	Main     — application registration, phase markers, periodic updates
//	Command  — server → application steering/view requests
//	Response — application → server responses to those requests
//
// The server side (Daemon) plays the Daemon-servlet role: it authenticates
// registrations, assigns application identifiers, and buffers all client
// requests while the application computes, delivering them only when the
// application enters its interaction phase, so requests are never lost
// while the application is busy.
//
// Phase protocol: the application announces "interaction" on the Main
// channel with a phase sequence number; the Daemon flushes every buffered
// command onto the Command channel followed by a "drained" marker carrying
// that sequence number; the application answers each command on the
// Response channel, sees the marker, and resumes computing. Commands
// arriving after the marker wait for the next phase.
package appproto

import (
	"bytes"
	"crypto/rand"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"discover/internal/app"
	"discover/internal/wire"
)

// Channel roles used in registration hellos.
const (
	roleMain     = "main"
	roleCommand  = "command"
	roleResponse = "response"
)

// Phase marker operations on the Main and Command channels.
const (
	OpInteraction = "interaction" // app → server: ready for buffered requests
	OpCompute     = "compute"     // app → server: returning to computation
	OpDrained     = "drained"     // server → app: buffer flushed for this phase
)

// Registration is the information an application supplies when it
// connects: its identity plus the authorized user list from which the
// server builds the ACL, and the parameter table as interface descriptor.
type Registration struct {
	Name   string
	Kind   string
	Owner  string // user owning the application's generated data
	Users  []app.UserGrant
	Params []app.Param
}

// encodeRegistration packs a Registration into a message payload.
func encodeRegistration(r Registration) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(r); err != nil {
		return nil, fmt.Errorf("appproto: encode registration: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeRegistration unpacks a Registration payload.
func decodeRegistration(p []byte) (Registration, error) {
	var r Registration
	if err := gob.NewDecoder(bytes.NewReader(p)).Decode(&r); err != nil {
		return Registration{}, fmt.Errorf("appproto: decode registration: %w", err)
	}
	return r, nil
}

func newSessionToken() string {
	b := make([]byte, 16)
	if _, err := rand.Read(b); err != nil {
		panic("appproto: cannot read random session token: " + err.Error())
	}
	return hex.EncodeToString(b)
}

// ---------------------------------------------------------------------------
// Server side: the Daemon.
// ---------------------------------------------------------------------------

// Handler receives Daemon events. Implementations must be safe for
// concurrent calls (one goroutine per application channel).
type Handler interface {
	// AssignAppID mints the globally unique application identifier for a
	// new registration (serverIP:port#count in the DISCOVER scheme) and
	// may reject the application.
	AssignAppID(reg Registration) (string, error)
	// AppRegistered fires once all three channels are attached, before
	// the application receives its final registration ack.
	AppRegistered(ep *AppEndpoint)
	// AppClosed fires when an application's channels shut down.
	AppClosed(appID string, err error)
	// HandleUpdate receives periodic Main-channel updates.
	HandleUpdate(appID string, m *wire.Message)
	// HandleResponse receives Response-channel messages.
	HandleResponse(appID string, m *wire.Message)
}

// Daemon is the server-side endpoint applications connect to.
type Daemon struct {
	handler          Handler
	handshakeTimeout time.Duration

	mu      sync.Mutex
	ln      net.Listener
	closed  bool
	pending map[string]*AppEndpoint // session token -> partially attached endpoint
	apps    map[string]*AppEndpoint // app id -> fully attached endpoint
	wg      sync.WaitGroup
}

// NewDaemon creates a Daemon delivering events to handler.
func NewDaemon(handler Handler) *Daemon {
	return &Daemon{
		handler:          handler,
		handshakeTimeout: 10 * time.Second,
		pending:          make(map[string]*AppEndpoint),
		apps:             make(map[string]*AppEndpoint),
	}
}

// Listen binds the daemon to addr and starts accepting applications.
func (d *Daemon) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		ln.Close()
		return errors.New("appproto: daemon closed")
	}
	d.ln = ln
	d.mu.Unlock()
	d.wg.Add(1)
	go d.acceptLoop(ln)
	return nil
}

// Addr returns the daemon's listening address.
func (d *Daemon) Addr() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ln == nil {
		return ""
	}
	return d.ln.Addr().String()
}

// Close stops the daemon and disconnects every application.
func (d *Daemon) Close() {
	d.mu.Lock()
	d.closed = true
	ln := d.ln
	d.ln = nil
	eps := make([]*AppEndpoint, 0, len(d.apps)+len(d.pending))
	for _, ep := range d.apps {
		eps = append(eps, ep)
	}
	for _, ep := range d.pending {
		eps = append(eps, ep)
	}
	d.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, ep := range eps {
		ep.shutdown(errors.New("appproto: daemon closed"))
	}
	d.wg.Wait()
}

// App returns the endpoint for a registered application.
func (d *Daemon) App(appID string) (*AppEndpoint, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ep, ok := d.apps[appID]
	return ep, ok
}

// Apps returns the ids of all fully registered applications.
func (d *Daemon) Apps() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.apps))
	for id := range d.apps {
		out = append(out, id)
	}
	return out
}

func (d *Daemon) acceptLoop(ln net.Listener) {
	defer d.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			d.handshake(conn)
		}()
	}
}

// handshake classifies an inbound connection as one of the three channels
// and attaches it to its endpoint.
func (d *Daemon) handshake(conn net.Conn) {
	wc := wire.NewConn(conn)
	conn.SetReadDeadline(time.Now().Add(d.handshakeTimeout))
	hello, err := wc.Recv()
	if err != nil || hello.Kind != wire.KindRegister {
		wc.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})

	switch hello.Op {
	case roleMain:
		d.registerMain(wc, hello)
	case roleCommand, roleResponse:
		d.attachChannel(wc, hello)
	default:
		wc.Close()
	}
}

func (d *Daemon) registerMain(wc *wire.Conn, hello *wire.Message) {
	reg, err := decodeRegistration(hello.Data)
	if err != nil {
		wc.Send(wire.NewError(hello, wire.StatusBadRequest, err.Error()))
		wc.Close()
		return
	}
	appID, err := d.handler.AssignAppID(reg)
	if err != nil {
		wc.Send(wire.NewError(hello, wire.StatusDenied, err.Error()))
		wc.Close()
		return
	}
	session := newSessionToken()
	ep := &AppEndpoint{
		daemon:  d,
		id:      appID,
		session: session,
		reg:     reg,
		main:    wc,
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		wc.Close()
		return
	}
	d.pending[session] = ep
	d.mu.Unlock()

	ack := &wire.Message{Kind: wire.KindRegisterAck, App: appID, Seq: hello.Seq}
	ack.Set("session", session)
	if err := wc.Send(ack); err != nil {
		d.dropPending(session)
		wc.Close()
		return
	}
	// The main read loop starts immediately: updates may arrive before the
	// other channels attach.
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		ep.mainLoop()
	}()
}

func (d *Daemon) dropPending(session string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.pending, session)
}

func (d *Daemon) attachChannel(wc *wire.Conn, hello *wire.Message) {
	session, _ := hello.Get("session")
	d.mu.Lock()
	ep, ok := d.pending[session]
	if !ok || ep.id != hello.App {
		d.mu.Unlock()
		wc.Send(wire.NewError(hello, wire.StatusDenied, "unknown session"))
		wc.Close()
		return
	}
	switch hello.Op {
	case roleCommand:
		if ep.command != nil {
			d.mu.Unlock()
			wc.Close()
			return
		}
		ep.command = wc
	case roleResponse:
		if ep.response != nil {
			d.mu.Unlock()
			wc.Close()
			return
		}
		ep.response = wc
	}
	complete := ep.command != nil && ep.response != nil
	if complete {
		delete(d.pending, session)
		d.apps[ep.id] = ep
	}
	d.mu.Unlock()

	// The handler runs before the final ack, so Dial returning means the
	// application is registered and connectable.
	if complete {
		d.handler.AppRegistered(ep)
	}
	if err := wc.Send(&wire.Message{Kind: wire.KindRegisterAck, App: ep.id, Seq: hello.Seq}); err != nil {
		ep.shutdown(err)
		return
	}
	if complete {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			ep.responseLoop()
		}()
	}
}

func (d *Daemon) removeApp(ep *AppEndpoint) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.pending, ep.session)
	if cur, ok := d.apps[ep.id]; ok && cur == ep {
		delete(d.apps, ep.id)
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// AppEndpoint: the server-side view of one connected application.
// ---------------------------------------------------------------------------

// AppEndpoint is the Daemon-side handle for one application: its channels,
// registration, and the request buffer that holds client commands until
// the application's next interaction phase.
type AppEndpoint struct {
	daemon  *Daemon
	id      string
	session string
	reg     Registration

	main     *wire.Conn
	command  *wire.Conn
	response *wire.Conn

	bufMu     sync.Mutex
	buffer    []*wire.Message
	bufBytes  int
	lastPhase uint64

	closeOnce sync.Once
}

// MaxBufferedCommands bounds the per-application request buffer; beyond
// it, Enqueue rejects with StatusOverloaded (the client can retry).
const MaxBufferedCommands = 4096

// ID returns the application's globally unique identifier.
func (ep *AppEndpoint) ID() string { return ep.id }

// Registration returns what the application registered.
func (ep *AppEndpoint) Registration() Registration { return ep.reg }

// Enqueue buffers a command for delivery at the application's next
// interaction phase. It is the Daemon-servlet buffering of the paper.
func (ep *AppEndpoint) Enqueue(cmd *wire.Message) error {
	ep.bufMu.Lock()
	defer ep.bufMu.Unlock()
	if len(ep.buffer) >= MaxBufferedCommands {
		return fmt.Errorf("appproto: %s command buffer full", ep.id)
	}
	ep.buffer = append(ep.buffer, cmd)
	return nil
}

// BufferedCommands reports how many commands await the next interaction
// phase.
func (ep *AppEndpoint) BufferedCommands() int {
	ep.bufMu.Lock()
	defer ep.bufMu.Unlock()
	return len(ep.buffer)
}

// flush sends all buffered commands followed by the drained marker for
// the given phase.
func (ep *AppEndpoint) flush(phase uint64) error {
	ep.bufMu.Lock()
	cmds := ep.buffer
	ep.buffer = nil
	ep.lastPhase = phase
	ep.bufMu.Unlock()
	for _, c := range cmds {
		if err := ep.command.Send(c); err != nil {
			return err
		}
	}
	return ep.command.Send(&wire.Message{Kind: wire.KindPhase, Op: OpDrained, App: ep.id, Seq: phase})
}

func (ep *AppEndpoint) mainLoop() {
	var cause error
	for {
		m, err := ep.main.Recv()
		if err != nil {
			cause = err
			break
		}
		switch m.Kind {
		case wire.KindUpdate:
			ep.daemon.handler.HandleUpdate(ep.id, m)
		case wire.KindPhase:
			if m.Op == OpInteraction {
				if err := ep.flush(m.Seq); err != nil {
					cause = err
				}
			}
			// OpCompute needs no action: buffering is the default.
		case wire.KindBye:
			cause = nil
		default:
			continue
		}
		if m.Kind == wire.KindBye || cause != nil {
			break
		}
	}
	ep.shutdown(cause)
}

func (ep *AppEndpoint) responseLoop() {
	for {
		m, err := ep.response.Recv()
		if err != nil {
			ep.shutdown(err)
			return
		}
		if m.Kind == wire.KindResponse || m.Kind == wire.KindError {
			ep.daemon.handler.HandleResponse(ep.id, m)
		}
	}
}

// shutdown tears the endpoint down exactly once and notifies the handler
// if the app had completed registration.
func (ep *AppEndpoint) shutdown(err error) {
	ep.closeOnce.Do(func() {
		registered := ep.daemon.removeApp(ep)
		if ep.main != nil {
			ep.main.Close()
		}
		if ep.command != nil {
			ep.command.Close()
		}
		if ep.response != nil {
			ep.response.Close()
		}
		if registered {
			ep.daemon.handler.AppClosed(ep.id, err)
		}
	})
}
