// Package portal is the client-side library for DISCOVER web portals: the
// thin HTTP client the paper's browser applets correspond to. It speaks
// the poll-and-pull protocol (commands are acknowledged immediately;
// responses and updates arrive by draining the server-side FIFO buffer)
// and runs the "dedicated thread" for collaboration as a poll pump that
// dispatches messages by kind — exactly how DISCOVER clients discriminated
// Response, Error and Update objects.
package portal

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"discover/internal/server"
	"discover/internal/wire"
)

// Client is one portal session against a DISCOVER server.
type Client struct {
	base string
	hc   *http.Client

	mu       sync.Mutex
	clientID string
	token    string
	server   string
	user     string
	app      string

	pumpMu    sync.Mutex
	pending   map[uint64]chan *wire.Message
	onEvent   func(*wire.Message)
	pumping   bool
	pumpStop  chan struct{}
	pumpDone  chan struct{}
	streaming bool // delivery is currently riding an open SSE stream

	// Own responses that arrive before their WaitResponse (see dispatch),
	// also guarded by pumpMu.
	commands   int                  // Command calls whose POST has not returned
	issued     map[uint64]time.Time // seq -> when Command returned it, until waited for
	early      []earlyResponse      // held responses, oldest first
	earlyTimer *time.Timer          // flushes held responses nobody claimed

	// eventMu serializes onEvent calls from the pump and the early-
	// response timer. It guards no other state and is never taken while
	// pumpMu or mu is held.
	eventMu sync.Mutex

	lastEventID atomic.Uint64 // newest SSE id processed (resume token)
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the HTTP client (e.g. one whose transport
// dials through netsim).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// New creates a portal client for a server's base URL
// (e.g. "http://127.0.0.1:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:    baseURL,
		hc:      http.DefaultClient,
		pending: make(map[uint64]chan *wire.Message),
		issued:  make(map[uint64]time.Time),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIError is a decoded non-2xx portal response: the /api/v1 uniform
// error envelope (code, message, retry hint) plus the transport status.
// errors.Is matches it against the typed sentinels below by code, so
// callers branch on errors.Is(err, portal.ErrRateLimited) rather than
// parsing strings or status numbers.
type APIError struct {
	Status     int           // HTTP status
	Code       string        // machine-readable code from the envelope
	Message    string        // human-readable detail
	RetryAfter time.Duration // server's retry hint (0 if none)
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("portal: HTTP %d %s: %s", e.Status, e.Code, e.Message)
	}
	return fmt.Sprintf("portal: HTTP %d: %s", e.Status, e.Message)
}

// sentinelError is the identity errors.Is compares APIErrors against.
type sentinelError struct{ code, msg string }

func (e *sentinelError) Error() string { return e.msg }

// Is makes an APIError match the sentinel carrying its code.
func (e *APIError) Is(target error) bool {
	s, ok := target.(*sentinelError)
	return ok && s.code == e.Code
}

// Typed sentinels mirroring the server's error-code registry (API.md).
// Compare with errors.Is; the matched APIError (via errors.As) carries
// the message and retry hint.
var (
	ErrBadRequest      error = &sentinelError{"bad_request", "portal: bad request"}
	ErrUnauthorized    error = &sentinelError{"unauthorized", "portal: unauthorized"}
	ErrSessionNotFound error = &sentinelError{"session_not_found", "portal: session not found"}
	ErrForbidden       error = &sentinelError{"forbidden", "portal: forbidden"}
	ErrAppNotFound     error = &sentinelError{"app_not_found", "portal: application not found"}
	ErrNotConnected    error = &sentinelError{"not_connected", "portal: not connected to an application"}
	ErrLockHeld        error = &sentinelError{"lock_held", "portal: steering lock held"}
	ErrRateLimited     error = &sentinelError{"rate_limited", "portal: rate limited"}
	ErrOverloaded      error = &sentinelError{"overloaded", "portal: server overloaded"}
	ErrShuttingDown    error = &sentinelError{"shutting_down", "portal: server shutting down"}
	ErrPeerDown        error = &sentinelError{"peer_down", "portal: peer server down"}
	ErrNotFound        error = &sentinelError{"not_found", "portal: not found"}
	ErrCollabDisabled  error = &sentinelError{"collab_disabled", "portal: collaboration disabled"}
	ErrGroupNotFound   error = &sentinelError{"group_not_found", "portal: collaboration group not found"}
	ErrBadWatermark    error = &sentinelError{"bad_watermark", "portal: whiteboard watermark out of range"}
	ErrInternal        error = &sentinelError{"internal", "portal: internal server error"}
)

// RetryAfter extracts the server's retry hint from a shed-request error
// (ErrRateLimited, ErrOverloaded, ErrShuttingDown). ok is false when err
// carries no hint.
func RetryAfter(err error) (d time.Duration, ok bool) {
	var ae *APIError
	if errors.As(err, &ae) && ae.RetryAfter > 0 {
		return ae.RetryAfter, true
	}
	return 0, false
}

// IsDenied reports whether err is a privilege failure.
func IsDenied(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == http.StatusForbidden
}

// IsLockConflict reports whether err is a steering-lock conflict.
func IsLockConflict(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == http.StatusConflict
}

// statusCode maps an HTTP status to a registry code, for error responses
// that carry no envelope (such as the mux's own 404 and 405).
func statusCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusUnauthorized:
		return "unauthorized"
	case http.StatusForbidden:
		return "forbidden"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "lock_held"
	case http.StatusTooManyRequests:
		return "rate_limited"
	case http.StatusServiceUnavailable:
		return "shutting_down"
	default:
		return "internal"
	}
}

// decodeAPIError turns a non-2xx response into an *APIError from the
// uniform error envelope, falling back to the status alone when the body
// carries none.
func decodeAPIError(resp *http.Response) error {
	ae := &APIError{Status: resp.StatusCode}
	var env server.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err == nil {
		ae.Code = string(env.Error.Code)
		ae.Message = env.Error.Message
		ae.RetryAfter = time.Duration(env.Error.RetryAfterMS) * time.Millisecond
	}
	if ae.Code == "" {
		ae.Code = statusCode(resp.StatusCode)
	}
	return ae
}

func (c *Client) post(ctx context.Context, path string, body, out any) error {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, &buf)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, out)
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

// maxDrain bounds how much of an unread response body do discards so the
// connection can go back to the keep-alive pool.
const maxDrain = 64 << 10

func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.send(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxDrain))
		resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		return decodeAPIError(resp)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// send issues req once more on a fresh connection when it failed on a
// reused keep-alive connection before any response byte arrived. That is
// how a server closing an idle connection just as the request goes out
// shows, and the HTTP client retries only idempotent requests by itself.
// The same rule covers every method, as browsers apply it to POST.
func (c *Client) send(req *http.Request) (*http.Response, error) {
	var reused, answered atomic.Bool
	trace := &httptrace.ClientTrace{
		GotConn:              func(i httptrace.GotConnInfo) { reused.Store(i.Reused) },
		GotFirstResponseByte: func() { answered.Store(true) },
	}
	resp, err := c.hc.Do(req.WithContext(httptrace.WithClientTrace(req.Context(), trace)))
	if err == nil || !reused.Load() || answered.Load() || req.Context().Err() != nil {
		return resp, err
	}
	retry := req.Clone(req.Context())
	if req.Body != nil && req.Body != http.NoBody {
		if req.GetBody == nil {
			return nil, err // the body is spent and cannot be sent again
		}
		body, berr := req.GetBody()
		if berr != nil {
			return nil, err
		}
		retry.Body = body
	}
	return c.hc.Do(retry)
}

// ClientID returns the server-assigned client id ("" before Login).
func (c *Client) ClientID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clientID
}

// App returns the connected application id ("" if none).
func (c *Client) App() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.app
}

// Login performs level-one authentication.
func (c *Client) Login(ctx context.Context, user, secret string) error {
	var lr server.LoginResponse
	if err := c.post(ctx, "/api/v1/login", server.LoginRequest{User: user, Secret: secret}, &lr); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clientID = lr.ClientID
	c.token = lr.Token
	c.server = lr.Server
	c.user = user
	return nil
}

// Handle captures the session's identity so a detached portal can resume
// it later with Attach — DISCOVER portals are detachable: the session,
// its buffer and its application binding live at the server.
type Handle struct {
	ClientID string `json:"clientId"`
	Token    string `json:"token"`
	Server   string `json:"server"`
	User     string `json:"user"`
}

// Detach stops the pump and returns the handle for a later Attach. The
// server-side session stays alive (until the idle janitor reaps it).
func (c *Client) Detach() Handle {
	c.StopPump()
	c.mu.Lock()
	defer c.mu.Unlock()
	return Handle{ClientID: c.clientID, Token: c.token, Server: c.server, User: c.user}
}

// Attach resumes a detached session on this client and reports the
// session's application binding and privilege ("" when not connected).
func (c *Client) Attach(ctx context.Context, h Handle) (app, privilege string, err error) {
	var ar server.AttachResponse
	err = c.post(ctx, "/api/v1/attach", server.AttachRequest{ClientID: h.ClientID, Token: h.Token}, &ar)
	if err != nil {
		return "", "", err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clientID = h.ClientID
	c.token = h.Token
	c.server = h.Server
	c.user = ar.User
	c.app = ar.App
	return ar.App, ar.Privilege, nil
}

// Logout ends the session (stopping the pump first).
func (c *Client) Logout(ctx context.Context) error {
	c.StopPump()
	id := c.ClientID()
	if id == "" {
		return nil
	}
	err := c.post(ctx, "/api/v1/logout", map[string]string{"clientId": id}, nil)
	c.mu.Lock()
	c.clientID, c.token, c.app = "", "", ""
	c.mu.Unlock()
	return err
}

// Apps lists all applications (local and remote) visible to the user.
func (c *Client) Apps(ctx context.Context) ([]server.AppInfo, error) {
	var ar server.AppsResponse
	if err := c.get(ctx, "/api/v1/apps?client="+url.QueryEscape(c.ClientID()), &ar); err != nil {
		return nil, err
	}
	return ar.Apps, nil
}

// ConnectApp performs level-two authorization and joins the application's
// collaboration group; it returns the granted privilege name.
func (c *Client) ConnectApp(ctx context.Context, appID string) (string, error) {
	var cr server.ConnectResponse
	err := c.post(ctx, "/api/v1/connect", server.ConnectRequest{ClientID: c.ClientID(), App: appID}, &cr)
	if err != nil {
		return "", err
	}
	c.mu.Lock()
	c.app = appID
	c.mu.Unlock()
	return cr.Privilege, nil
}

// DisconnectApp leaves the application.
func (c *Client) DisconnectApp(ctx context.Context) error {
	err := c.post(ctx, "/api/v1/disconnect", map[string]string{"clientId": c.ClientID()}, nil)
	c.mu.Lock()
	c.app = ""
	c.mu.Unlock()
	return err
}

// Command submits a command; the response arrives asynchronously (see
// WaitResponse or the pump). It returns the command sequence number. A
// response nobody waits for reaches onEvent at most earlyGrace after
// Command returns (see dispatch).
func (c *Client) Command(ctx context.Context, op string, params map[string]string) (uint64, error) {
	c.pumpMu.Lock()
	c.commands++
	c.pumpMu.Unlock()
	var cr server.CommandResponse
	err := c.post(ctx, "/api/v1/command", server.CommandRequest{
		ClientID: c.ClientID(), Op: op, Params: params,
	}, &cr)
	now := time.Now()
	c.pumpMu.Lock()
	c.commands--
	for seq, at := range c.issued {
		if now.Sub(at) >= earlyMaxHold {
			delete(c.issued, seq)
		}
	}
	if err == nil && c.pumping {
		c.issued[cr.Seq] = now
	}
	if len(c.early) > 0 {
		// Held responses this command was the last hope for go to
		// onEvent from the timer, not from the caller's goroutine.
		c.armEarlyTimer(0)
	}
	c.pumpMu.Unlock()
	return cr.Seq, err
}

// SetParam issues a set_param steering command.
func (c *Client) SetParam(ctx context.Context, name string, value float64) (uint64, error) {
	return c.Command(ctx, "set_param", map[string]string{
		"name": name, "value": strconv.FormatFloat(value, 'g', -1, 64),
	})
}

// GetParam issues a get_param query.
func (c *Client) GetParam(ctx context.Context, name string) (uint64, error) {
	return c.Command(ctx, "get_param", map[string]string{"name": name})
}

// Status issues a status query.
func (c *Client) Status(ctx context.Context) (uint64, error) {
	return c.Command(ctx, "status", nil)
}

// Poll drains up to max messages (0 = all), long-polling up to wait,
// through GET /api/v1/session/{id}/events.
func (c *Client) Poll(ctx context.Context, max int, wait time.Duration) ([]*wire.Message, error) {
	var er server.EventsResponse
	path := fmt.Sprintf("/api/v1/session/%s/events?max=%d&wait=%s",
		url.PathEscape(c.ClientID()), max, wait)
	if err := c.get(ctx, path, &er); err != nil {
		return nil, err
	}
	return er.Messages, nil
}

// AcquireLock requests the steering lock; granted=false reports the
// current holder.
func (c *Client) AcquireLock(ctx context.Context) (granted bool, holder string, err error) {
	var lr server.LockResponse
	err = c.post(ctx, "/api/v1/lock", server.LockRequestBody{ClientID: c.ClientID(), Acquire: true}, &lr)
	return lr.Granted, lr.Holder, err
}

// ReleaseLock gives the steering lock back.
func (c *Client) ReleaseLock(ctx context.Context) error {
	return c.post(ctx, "/api/v1/lock", server.LockRequestBody{ClientID: c.ClientID(), Acquire: false}, nil)
}

// Chat sends a chat line to the collaboration group.
func (c *Client) Chat(ctx context.Context, text string) error {
	return c.post(ctx, "/api/v1/chat", server.ChatRequest{ClientID: c.ClientID(), Text: text}, nil)
}

// Whiteboard sends a whiteboard stroke.
func (c *Client) Whiteboard(ctx context.Context, stroke []byte) error {
	return c.post(ctx, "/api/v1/whiteboard", server.WhiteboardRequest{ClientID: c.ClientID(), Stroke: stroke}, nil)
}

// ShareView explicitly shares a view with the sub-group.
func (c *Client) ShareView(ctx context.Context, view []byte) error {
	return c.post(ctx, "/api/v1/share", server.ShareRequest{ClientID: c.ClientID(), View: view}, nil)
}

// SetCollaboration flips collaboration mode.
func (c *Client) SetCollaboration(ctx context.Context, enabled bool) error {
	return c.post(ctx, "/api/v1/collab", server.CollabRequest{ClientID: c.ClientID(), Enabled: &enabled}, nil)
}

// JoinSubGroup moves into a named sub-group ("" = main group).
func (c *Client) JoinSubGroup(ctx context.Context, sub string) error {
	return c.post(ctx, "/api/v1/collab", server.CollabRequest{ClientID: c.ClientID(), Sub: &sub}, nil)
}

// CollabInfo reads the typed collaboration resource: this session's
// mode, the local membership view, and the converged CRDT view of the
// whole cross-domain group with its replication watermarks.
func (c *Client) CollabInfo(ctx context.Context) (server.CollabInfoResponse, error) {
	var cr server.CollabInfoResponse
	err := c.get(ctx, "/api/v1/session/"+url.PathEscape(c.ClientID())+"/collab", &cr)
	return cr, err
}

// WhiteboardSince replays whiteboard strokes past a watermark (0 =
// everything). Pass the returned Watermark back to resume incrementally,
// the way Last-Event-ID resumes the SSE stream.
func (c *Client) WhiteboardSince(ctx context.Context, from uint64) (server.WhiteboardResponse, error) {
	var wr server.WhiteboardResponse
	path := fmt.Sprintf("/api/v1/session/%s/whiteboard?from=%d", url.PathEscape(c.ClientID()), from)
	err := c.get(ctx, path, &wr)
	return wr, err
}

// Replay fetches the archived interaction log from a sequence number.
func (c *Client) Replay(ctx context.Context, from uint64) (server.ReplayResponse, error) {
	var rr server.ReplayResponse
	path := fmt.Sprintf("/api/v1/replay?client=%s&from=%d", url.QueryEscape(c.ClientID()), from)
	err := c.get(ctx, path, &rr)
	return rr, err
}

// Records queries the record database.
func (c *Client) Records(ctx context.Context, table string, filter map[string]string) ([]server.RecordView, error) {
	q := url.Values{}
	q.Set("client", c.ClientID())
	q.Set("table", table)
	for k, v := range filter {
		q.Set("f."+k, v)
	}
	var rr server.RecordsResponse
	if err := c.get(ctx, "/api/v1/records?"+q.Encode(), &rr); err != nil {
		return nil, err
	}
	return rr.Records, nil
}

// Users lists users logged in at the server.
func (c *Client) Users(ctx context.Context) ([]string, error) {
	var ur server.UsersResponse
	if err := c.get(ctx, "/api/v1/users?client="+url.QueryEscape(c.ClientID()), &ur); err != nil {
		return nil, err
	}
	return ur.Users, nil
}

// ---------------------------------------------------------------------------
// The poll pump: the client-side collaboration thread.
// ---------------------------------------------------------------------------

// StartPump begins background polling. Responses and errors matching a
// WaitResponse call wake that caller; everything else (updates, chat,
// whiteboard, events, unsolicited responses) goes to onEvent (which may
// be nil). onEvent calls never overlap, but a response held for a
// WaitResponse that never came reaches onEvent from a timer goroutine
// (see dispatch). Safe to call once per client.
func (c *Client) StartPump(onEvent func(*wire.Message)) {
	c.pumpMu.Lock()
	defer c.pumpMu.Unlock()
	if c.pumping {
		return
	}
	c.pumping = true
	c.onEvent = onEvent
	c.pumpStop = make(chan struct{})
	c.pumpDone = make(chan struct{})
	go c.pumpLoop(c.pumpStop, c.pumpDone)
}

// StopPump stops background delivery (either the poll pump or the
// streaming loop).
func (c *Client) StopPump() {
	c.pumpMu.Lock()
	if !c.pumping {
		c.pumpMu.Unlock()
		return
	}
	c.pumping = false
	stop, done := c.pumpStop, c.pumpDone
	c.pumpMu.Unlock()
	close(stop)
	<-done
	// Nothing can claim a held response once the pump is gone.
	c.pumpMu.Lock()
	held := c.early
	c.early = nil
	if c.earlyTimer != nil {
		c.earlyTimer.Stop()
	}
	c.pumpMu.Unlock()
	for _, e := range held {
		c.deliver(e.m)
	}
}

// pumpLoop is StartPump's delivery body: long-poll the events route
// until stop is closed.
func (c *Client) pumpLoop(stop, done chan struct{}) {
	defer close(done)
	for {
		select {
		case <-stop:
			return
		default:
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		msgs, err := c.Poll(ctx, 64, 1*time.Second)
		cancel()
		if err != nil {
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Millisecond):
				continue
			}
		}
		for _, m := range msgs {
			c.dispatch(m)
		}
	}
}

// ---------------------------------------------------------------------------
// The streaming pump: SSE delivery with auto-resume.
// ---------------------------------------------------------------------------

// streamBackoffMax caps the reconnect backoff between stream attempts.
const streamBackoffMax = 2 * time.Second

// StreamEvents begins background delivery over the server's SSE stream
// (GET /api/v1/session/{id}/stream) instead of the poll loop. Dispatch
// semantics are identical to StartPump: responses and errors matching a
// WaitResponse caller wake that caller, everything else goes to onEvent.
//
// The loop reconnects automatically, presenting the last event id it
// processed as a resume token so the server splices the gap from its
// replay ring (or reports the loss as an events-lost marker, which is
// delivered to onEvent like any other event). Any failed attempt, a 404
// included, is retried with backoff. StopPump stops either mode.
func (c *Client) StreamEvents(onEvent func(*wire.Message)) {
	c.pumpMu.Lock()
	defer c.pumpMu.Unlock()
	if c.pumping {
		return
	}
	c.pumping = true
	c.onEvent = onEvent
	c.pumpStop = make(chan struct{})
	c.pumpDone = make(chan struct{})
	go c.streamLoop(c.pumpStop, c.pumpDone)
}

// LastEventID reports the newest SSE sequence number the streaming pump
// has processed — the resume token it presents on reconnect. Tests use
// it to assert a client resumed (spliced) rather than restarted after a
// domain recovery; 0 means no identified event has arrived yet.
func (c *Client) LastEventID() uint64 { return c.lastEventID.Load() }

// Streaming reports whether delivery currently rides an open SSE stream
// (false before the first connect, under StartPump, or between reconnect
// attempts).
func (c *Client) Streaming() bool {
	c.pumpMu.Lock()
	defer c.pumpMu.Unlock()
	return c.streaming
}

func (c *Client) setStreaming(on bool) {
	c.pumpMu.Lock()
	c.streaming = on
	c.pumpMu.Unlock()
}

func (c *Client) streamLoop(stop, done chan struct{}) {
	defer close(done)
	defer c.setStreaming(false)
	var lastID uint64
	backoff := 100 * time.Millisecond
	for {
		select {
		case <-stop:
			return
		default:
		}
		delivered, wait := c.streamOnce(stop, &lastID)
		if delivered {
			backoff = 100 * time.Millisecond
		}
		if wait < backoff {
			wait = backoff
		}
		select {
		case <-stop:
			return
		case <-time.After(wait):
		}
		if backoff *= 2; backoff > streamBackoffMax {
			backoff = streamBackoffMax
		}
	}
}

// streamOnce opens one stream connection and consumes it until it ends.
// delivered reports whether any event arrived (resets the backoff), and
// wait a server-supplied floor on the reconnect delay (shed retry hints).
func (c *Client) streamOnce(stop chan struct{}, lastID *uint64) (delivered bool, wait time.Duration) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-stop:
			cancel()
		case <-ctx.Done():
		}
	}()

	u := c.base + "/api/v1/session/" + url.PathEscape(c.ClientID()) + "/stream"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return false, 0
	}
	if *lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(*lastID, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, 0
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d, _ := RetryAfter(decodeAPIError(resp))
		return false, d
	}

	c.setStreaming(true)
	defer c.setStreaming(false)

	// SSE framing: "id:" and "data:" lines accumulate into one event,
	// a blank line dispatches it, ":" lines are heartbeat comments.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	var id uint64
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if len(data) > 0 {
				var m wire.Message
				if json.Unmarshal(data, &m) == nil {
					if id > 0 {
						*lastID = id
						c.lastEventID.Store(id)
					}
					delivered = true
					c.dispatch(&m)
				}
			}
			id, data = 0, nil
		case strings.HasPrefix(line, "id:"):
			id, _ = strconv.ParseUint(strings.TrimSpace(line[len("id:"):]), 10, 64)
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimSpace(line[len("data:"):])...)
		}
	}
	// The server closed the stream: a shed after buffer-overflow, a
	// drain, or a network fault. Reconnect with the resume token.
	return delivered, 0
}

// An own response with no WaitResponse registered is held while one may
// still come: for earlyGrace after Command returned its seq, which covers
// the moment between Command and WaitResponse, or while a Command whose
// seq is not known yet is in flight, but never longer than earlyMaxHold.
// At most earlyMax responses are held.
const (
	earlyGrace   = 20 * time.Millisecond
	earlyMaxHold = time.Second
	earlyMax     = 64
)

// earlyResponse is an own response that arrived with no WaitResponse
// registered for it.
type earlyResponse struct {
	m  *wire.Message
	at time.Time
}

// dispatch routes one pumped message. A response or error for this
// client goes to the WaitResponse registered for its seq. With none
// registered, it is held while a WaitResponse may still come for it (see
// earlyGrace), so a response that outruns Command's return is not lost
// to onEvent. Everything else, and every held response nobody claims in
// time, goes to onEvent.
func (c *Client) dispatch(m *wire.Message) {
	if (m.Kind == wire.KindResponse || m.Kind == wire.KindError) && m.Client == c.ClientID() {
		now := time.Now()
		c.pumpMu.Lock()
		if ch, ok := c.pending[m.Seq]; ok {
			delete(c.pending, m.Seq)
			c.pumpMu.Unlock()
			ch <- m
			return
		}
		if _, wait := c.holdUntil(m.Seq, now, now); wait {
			var evicted []*wire.Message
			if len(c.early) == earlyMax {
				evicted = append(evicted, c.early[0].m)
				c.early = c.early[1:]
			}
			c.early = append(c.early, earlyResponse{m: m, at: now})
			c.armEarlyTimer(0)
			c.pumpMu.Unlock()
			c.deliver(evicted...)
			return
		}
		c.pumpMu.Unlock()
	}
	c.deliver(m)
}

// deliver hands messages to onEvent, one call at a time.
func (c *Client) deliver(ms ...*wire.Message) {
	if len(ms) == 0 {
		return
	}
	c.pumpMu.Lock()
	h := c.onEvent
	c.pumpMu.Unlock()
	if h == nil {
		return
	}
	c.eventMu.Lock()
	defer c.eventMu.Unlock()
	for _, m := range ms {
		h(m)
	}
}

// armEarlyTimer schedules flushEarly after d. Callers hold pumpMu.
func (c *Client) armEarlyTimer(d time.Duration) {
	if c.earlyTimer == nil {
		c.earlyTimer = time.AfterFunc(d, c.flushEarly)
		return
	}
	c.earlyTimer.Reset(d)
}

// holdUntil reports whether a WaitResponse may still claim the response
// to seq that arrived at arrived, and until when it may. Callers hold
// pumpMu.
func (c *Client) holdUntil(seq uint64, arrived, now time.Time) (time.Time, bool) {
	until := arrived.Add(earlyMaxHold)
	if at, ok := c.issued[seq]; ok {
		if g := at.Add(earlyGrace); g.Before(until) {
			until = g
		}
	} else if c.commands == 0 {
		return time.Time{}, false // no Command can still return this seq
	}
	return until, now.Before(until)
}

// flushEarly delivers to onEvent the held responses no WaitResponse can
// claim any more, and rearms itself for the next one still held to
// expire.
func (c *Client) flushEarly() {
	now := time.Now()
	var unclaimed []*wire.Message
	var next time.Time
	c.pumpMu.Lock()
	keep := c.early[:0]
	for _, e := range c.early {
		until, wait := c.holdUntil(e.m.Seq, e.at, now)
		if !wait {
			unclaimed = append(unclaimed, e.m)
			continue
		}
		keep = append(keep, e)
		if next.IsZero() || until.Before(next) {
			next = until
		}
	}
	clear(c.early[len(keep):])
	c.early = keep
	if len(c.early) > 0 {
		c.armEarlyTimer(next.Sub(now))
	}
	c.pumpMu.Unlock()
	c.deliver(unclaimed...)
}

// WaitResponse blocks until the response to command seq arrives via the
// pump (StartPump must be active). A response that arrived between
// Command and WaitResponse is returned at once.
func (c *Client) WaitResponse(ctx context.Context, seq uint64) (*wire.Message, error) {
	ch := make(chan *wire.Message, 1)
	c.pumpMu.Lock()
	if !c.pumping {
		c.pumpMu.Unlock()
		return nil, fmt.Errorf("portal: WaitResponse requires StartPump")
	}
	delete(c.issued, seq)
	for i, e := range c.early {
		if e.m.Seq == seq {
			c.early = append(c.early[:i], c.early[i+1:]...)
			c.pumpMu.Unlock()
			return e.m, nil
		}
	}
	c.pending[seq] = ch
	c.pumpMu.Unlock()
	select {
	case m := <-ch:
		return m, nil
	case <-ctx.Done():
		c.pumpMu.Lock()
		delete(c.pending, seq)
		c.pumpMu.Unlock()
		return nil, ctx.Err()
	}
}

// Do submits a command and waits for its response (pump must be running).
func (c *Client) Do(ctx context.Context, op string, params map[string]string) (*wire.Message, error) {
	seq, err := c.Command(ctx, op, params)
	if err != nil {
		return nil, err
	}
	return c.WaitResponse(ctx, seq)
}
