package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"

	"discover/internal/archive"
	"discover/internal/auth"
	"discover/internal/collab"
	"discover/internal/session"
	"discover/internal/telemetry"
	"discover/internal/wire"
)

// The HTTP API is the web-portal surface of the paper's servlets. Bodies
// are JSON — the modern stand-in for the prototype's serialized Java
// objects over HTTP GET/POST. Clients receive their server-side FIFO
// buffer over an SSE stream (/session/{id}/stream), or long-poll it
// (/session/{id}/events) where streaming is not possible: the
// commodity-HTTP trade-off §6.2 discusses.
//
// Every route lives under /api/v1 (API.md documents each); only the
// operator endpoints /metrics and /debug/pprof sit outside it.
// Session-facing routes pass through edge admission (admission.go)
// before their handler runs.

// API request/response bodies.
type (
	// LoginRequest authenticates a user at their home server.
	LoginRequest struct {
		User   string `json:"user"`
		Secret string `json:"secret"`
	}
	// LoginResponse returns the session identity.
	LoginResponse struct {
		ClientID string `json:"clientId"`
		Token    string `json:"token"`
		Server   string `json:"server"`
	}
	// AppsResponse lists visible applications, local and remote.
	AppsResponse struct {
		Apps []AppInfo `json:"apps"`
	}
	// ConnectRequest performs level-two authorization.
	ConnectRequest struct {
		ClientID string `json:"clientId"`
		App      string `json:"app"`
	}
	// ConnectResponse reports the granted privilege.
	ConnectResponse struct {
		App       string `json:"app"`
		Privilege string `json:"privilege"`
	}
	// CommandRequest submits a steering/view command.
	CommandRequest struct {
		ClientID string            `json:"clientId"`
		Op       string            `json:"op"`
		Params   map[string]string `json:"params,omitempty"`
	}
	// CommandResponse acknowledges an accepted command. TraceID is set
	// when the request was sampled for tracing; fetch the hop breakdown
	// from GET /api/trace/{traceId} once the command has completed.
	CommandResponse struct {
		Seq     uint64 `json:"seq"`
		TraceID string `json:"traceId,omitempty"`
	}
	// LockRequestBody acquires or releases the steering lock.
	LockRequestBody struct {
		ClientID string `json:"clientId"`
		Acquire  bool   `json:"acquire"`
	}
	// LockResponse reports the outcome and current holder.
	LockResponse struct {
		Granted bool   `json:"granted"`
		Holder  string `json:"holder,omitempty"`
	}
	// ChatRequest sends a chat line to the collaboration group.
	ChatRequest struct {
		ClientID string `json:"clientId"`
		Text     string `json:"text"`
	}
	// WhiteboardRequest adds a whiteboard stroke.
	WhiteboardRequest struct {
		ClientID string `json:"clientId"`
		Stroke   []byte `json:"stroke"`
	}
	// ShareRequest explicitly shares a view.
	ShareRequest struct {
		ClientID string `json:"clientId"`
		View     []byte `json:"view"`
	}
	// CollabRequest changes collaboration mode or sub-group.
	CollabRequest struct {
		ClientID string  `json:"clientId"`
		Enabled  *bool   `json:"enabled,omitempty"`
		Sub      *string `json:"sub,omitempty"`
	}
	// CollabInfoResponse is the typed collaboration resource: the
	// session's own mode, the local membership view, and the converged
	// CRDT view of the whole cross-domain group with its replication
	// watermarks.
	CollabInfoResponse struct {
		App     string               `json:"app"`
		Enabled bool                 `json:"enabled"`
		Sub     string               `json:"sub,omitempty"`
		Members []string             `json:"members"`
		Relays  []string             `json:"relays,omitempty"`
		Group   []collab.MemberState `json:"group"`
		Log     CollabLogStats       `json:"log"`
	}
	// WhiteboardResponse replays whiteboard strokes past a watermark.
	// Watermark is the log head: pass it back as ?from= to resume.
	// Missed counts evicted strokes that could not be spliced back from
	// the WAL (memory-only domains past the retention cap).
	WhiteboardResponse struct {
		Strokes   []collab.StrokeEntry `json:"strokes"`
		Watermark uint64               `json:"watermark"`
		Missed    int                  `json:"missed,omitempty"`
	}
	// ReplayResponse returns archived interaction entries.
	ReplayResponse struct {
		Entries []archive.Entry `json:"entries"`
	}
	// RecordsResponse returns visible database records.
	RecordsResponse struct {
		Records []RecordView `json:"records"`
	}
	// RecordView is the JSON shape of one record.
	RecordView struct {
		ID     string            `json:"id"`
		Owner  string            `json:"owner"`
		Fields map[string]string `json:"fields"`
	}
	// UsersResponse lists logged-in users.
	UsersResponse struct {
		Users []string `json:"users"`
	}
	// InfoResponse describes the server.
	InfoResponse struct {
		Name     string `json:"name"`
		Apps     int    `json:"apps"`
		Sessions int    `json:"sessions"`
	}
	// AttachRequest re-attaches a detached portal to its session.
	AttachRequest struct {
		ClientID string `json:"clientId"`
		Token    string `json:"token"`
	}
	// AttachResponse reports the resumed session's state.
	AttachResponse struct {
		User      string `json:"user"`
		App       string `json:"app,omitempty"`
		Privilege string `json:"privilege,omitempty"`
		Buffered  int    `json:"buffered"`
	}
	// ErrorBody is the inside of the uniform error envelope.
	ErrorBody struct {
		Code         ErrCode `json:"code"`
		Message      string  `json:"message"`
		RetryAfterMS int64   `json:"retry_after_ms,omitempty"`
	}
	// ErrorResponse is the uniform error envelope every non-2xx API
	// response carries: {"error":{"code","message","retry_after_ms"}}.
	ErrorResponse struct {
		Error ErrorBody `json:"error"`
	}
)

// APIVersion is the current portal API version prefix.
const APIVersion = "/api/v1"

// apiRoute is one row of the portal route table. Path is relative to the
// version prefix; Open routes (operator/observability surface) bypass
// edge admission so an overloaded or draining server stays inspectable;
// Stream routes hold a connection open and so clear the long-lived
// connection cap inside their handler instead of the per-request
// in-flight limiter.
type apiRoute struct {
	Method string
	Path   string
	Open   bool
	Stream bool

	handler http.HandlerFunc
}

// Routes returns the portal route table — the single source of truth for
// HTTPHandler, the contract tests, and scripts/apidrift (which
// cross-checks it against API.md).
func (s *Server) Routes() []apiRoute {
	return []apiRoute{
		{Method: "POST", Path: "/login", handler: s.handleLogin},
		{Method: "POST", Path: "/attach", handler: s.handleAttach},
		{Method: "POST", Path: "/logout", handler: s.handleLogout},
		{Method: "GET", Path: "/apps", handler: s.handleApps},
		{Method: "POST", Path: "/connect", handler: s.handleConnect},
		{Method: "POST", Path: "/disconnect", handler: s.handleDisconnect},
		{Method: "POST", Path: "/command", handler: s.handleCommand},
		{Method: "GET", Path: "/session/{id}/events", handler: s.handleSessionEvents},
		{Method: "GET", Path: "/session/{id}/stream", Stream: true, handler: s.handleSessionStream},
		{Method: "POST", Path: "/lock", handler: s.handleLock},
		{Method: "POST", Path: "/chat", handler: s.handleChat},
		{Method: "POST", Path: "/whiteboard", handler: s.handleWhiteboard},
		{Method: "POST", Path: "/share", handler: s.handleShare},
		{Method: "POST", Path: "/collab", handler: s.handleCollab},
		{Method: "GET", Path: "/session/{id}/collab", handler: s.handleSessionCollab},
		{Method: "GET", Path: "/session/{id}/whiteboard", handler: s.handleSessionWhiteboard},
		{Method: "GET", Path: "/replay", handler: s.handleReplay},
		{Method: "GET", Path: "/records", handler: s.handleRecords},
		{Method: "GET", Path: "/users", handler: s.handleUsers},
		{Method: "GET", Path: "/info", Open: true, handler: s.handleInfo},
		{Method: "GET", Path: "/stats", Open: true, handler: s.handleStats},
		{Method: "GET", Path: "/trace", Open: true, handler: s.handleTraces},
		{Method: "GET", Path: "/trace/{id}", Open: true, handler: s.handleTrace},
	}
}

// HTTPHandler returns the server's web API: every route mounted under
// /api/v1, plus the unversioned operator endpoints (/metrics,
// /debug/pprof).
func (s *Server) HTTPHandler() http.Handler {
	mux := http.NewServeMux()
	retryMS := s.gate.retryAfter.Milliseconds()
	for _, rt := range s.Routes() {
		h := rt.handler
		if !rt.Open && !rt.Stream {
			h = s.gate.admit(h, retryMS)
		}
		mux.HandleFunc(rt.Method+" "+APIVersion+rt.Path, h)
	}
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// traceCtx makes the edge sampling decision for one portal request: one
// atomic increment when sampling is off or the request loses the draw; a
// trace minted into the request context when it wins. Callers must Finish
// the returned trace (nil-safe) once the request completes.
func (s *Server) traceCtx(r *http.Request, op string) (context.Context, *telemetry.ActiveTrace) {
	tr := telemetry.Default().Sample(op)
	if tr == nil {
		return r.Context(), nil
	}
	return telemetry.WithTrace(r.Context(), tr), tr
}

// handleMetrics exports every registered latency histogram and counter in
// Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	telemetry.DefaultRegistry().WritePrometheus(w)
}

// handleTrace returns one sampled trace with its per-hop span breakdown.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id, err := telemetry.ParseTraceID(r.PathValue("id"))
	if err != nil {
		writeErrCode(w, CodeBadRequest, err.Error(), 0)
		return
	}
	rec, ok := telemetry.Default().Get(id)
	if !ok {
		writeErrCode(w, CodeNotFound, "trace not found (unsampled, unfinished, or evicted)", 0)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// handleTraces lists recently finished traces, newest first.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	max, _ := strconv.Atoi(r.URL.Query().Get("max"))
	recs := telemetry.Default().Recent(max)
	if recs == nil {
		recs = []telemetry.TraceRecord{}
	}
	writeJSON(w, http.StatusOK, recs)
}

// StatsResponse is the operational snapshot of one server.
type StatsResponse struct {
	Name     string         `json:"name"`
	Apps     []AppStats     `json:"apps"`
	Sessions []SessionStats `json:"sessions"`
	Relays   []RelayStats   `json:"relays,omitempty"`
	Wire     *WireStats     `json:"wire,omitempty"`
	// PeerHealth reports the substrate's failure-detector view of each
	// federated peer, when a HealthProvider federation is attached.
	PeerHealth []PeerHealthStats `json:"peerHealth,omitempty"`
	// Directory reports the federation directory cache and scatter-gather
	// fan-out counters, when a DirectoryProvider federation is attached.
	Directory *DirectoryStats `json:"directory,omitempty"`
	// Edge reports the portal's admission-control state: in-flight
	// requests vs the cap, shed counts by reason, and draining.
	Edge *EdgeStats `json:"edge,omitempty"`
	// Storage reports the durable backend's WAL/snapshot counters and the
	// last startup recovery, when the domain persists its state.
	Storage *StorageStats `json:"storage,omitempty"`
}

// DirectoryStats aggregates the substrate's directory-cache and
// scatter-gather counters. Hits and StaleServes are listings answered
// with zero ORB invocations; Coalesced counts misses deduplicated into
// another caller's in-flight fetch; UnavailableServes counts degraded
// listings served while a peer's breaker was open.
type DirectoryStats struct {
	Entries             int    `json:"entries"`
	Hits                uint64 `json:"hits"`
	StaleServes         uint64 `json:"staleServes"`
	Misses              uint64 `json:"misses"`
	Coalesced           uint64 `json:"coalesced"`
	UnavailableServes   uint64 `json:"unavailableServes"`
	EventInvalidations  uint64 `json:"eventInvalidations"`
	HealthInvalidations uint64 `json:"healthInvalidations"`
	FanoutWorkers       int    `json:"fanoutWorkers"`
	FanoutRounds        uint64 `json:"fanoutRounds"`
	FanoutCalls         uint64 `json:"fanoutCalls"`
	// FanoutServed counts federated listings (apps, or users across every
	// peer) answered through the cache and scatter-gather path.
	FanoutServed uint64 `json:"fanoutServed"`
}

// DirectoryProvider is an optional Federation extension: a substrate that
// implements it gets its directory cache and fan-out counters surfaced in
// /api/stats.
type DirectoryProvider interface {
	DirectoryStats() DirectoryStats
}

// PeerHealthStats is the failure detector's view of one peer server.
type PeerHealthStats struct {
	Peer                string `json:"peer"`
	State               string `json:"state"` // healthy | suspect | down | probing
	ConsecutiveFailures int    `json:"consecutiveFailures"`
	LastError           string `json:"lastError,omitempty"`
	BreakerOpens        uint64 `json:"breakerOpens"`
	BreakerCloses       uint64 `json:"breakerCloses"`
	HeartbeatRTTMicros  int64  `json:"heartbeatRttMicros,omitempty"`
}

// HealthProvider is an optional Federation extension: a substrate that
// implements it gets per-peer failure-detector state in /api/stats.
type HealthProvider interface {
	PeerHealth() []PeerHealthStats
}

// RelayStats describes the push relay to one subscribed peer server:
// queue depth, messages shed on overflow (the relay analogue of client
// FIFO drops), and how many ORB invocations the batching paid for them.
type RelayStats struct {
	Peer        string `json:"peer"`
	Queued      int    `json:"queued"`
	Delivered   uint64 `json:"delivered"`
	Dropped     uint64 `json:"dropped"`
	Batches     uint64 `json:"batches"`
	Invocations uint64 `json:"invocations"`
	Failures    uint64 `json:"failures"`
}

// WireStats aggregates the substrate ORB's wire-level counters: requests
// sent and what they cost in write syscalls and bytes, replies served,
// total bytes written in both roles, descriptor-cache effectiveness and
// compressed frames.
type WireStats struct {
	Invocations uint64 `json:"invocations"`
	Oneways     uint64 `json:"oneways"`
	Writes      uint64 `json:"writes"`
	BytesOut    uint64 `json:"bytesOut"`
	Replies     uint64 `json:"replies"`
	Bytes       uint64 `json:"bytes"`
	InternDefs  uint64 `json:"internDefs"`
	InternHits  uint64 `json:"internHits"`
	Compressed  uint64 `json:"compressed"`
}

// StatsProvider is an optional Federation extension: a substrate that
// implements it gets its relay and wire counters surfaced in /api/stats.
type StatsProvider interface {
	RelayStats() []RelayStats
	WireStats() WireStats
}

// AppStats describes one local application's server-side state.
type AppStats struct {
	ID         string   `json:"id"`
	Name       string   `json:"name"`
	Kind       string   `json:"kind"`
	Buffered   int      `json:"bufferedCommands"`
	LockHolder string   `json:"lockHolder,omitempty"`
	Members    []string `json:"members"`
	Relays     []string `json:"relays"`
	LogLen     int      `json:"applicationLogLen"`
	// Collab summarizes the group's replicated CRDT op log.
	Collab *CollabLogStats `json:"collab,omitempty"`
}

// CollabLogStats is the JSON shape of one group's replicated op log:
// the order-independent state hash (equal across domains means the
// replicas converged), op/stroke/chat counts split by in-memory
// retention, and per-origin (seen, synced) watermarks.
type CollabLogStats struct {
	Origin     string                         `json:"origin"`
	Ops        int                            `json:"ops"`
	Retained   int                            `json:"retained"`
	Evicted    int                            `json:"evicted"`
	Strokes    int                            `json:"strokes"`
	Chats      int                            `json:"chats"`
	ApplyHead  uint64                         `json:"applyHead"`
	Hash       string                         `json:"hash"`
	Watermarks map[string]collab.LogWatermark `json:"watermarks,omitempty"`
}

// collabLogStats renders a log summary for the stats and collab APIs.
func collabLogStats(info collab.LogInfo) CollabLogStats {
	return CollabLogStats{
		Origin: info.Origin, Ops: info.Ops, Retained: info.Retained,
		Evicted: info.Evicted, Strokes: info.Strokes, Chats: info.Chats,
		ApplyHead: info.ApplyHead, Hash: fmt.Sprintf("%016x", info.Hash),
		Watermarks: info.Watermarks,
	}
}

// SessionStats describes one client session's delivery buffer.
type SessionStats struct {
	ClientID  string `json:"clientId"`
	User      string `json:"user"`
	App       string `json:"app,omitempty"`
	Buffered  int    `json:"buffered"`
	Dropped   uint64 `json:"dropped"`
	HighWater int    `json:"highWater"`
}

// handleStats reports buffers, locks, groups and logs — the operational
// visibility an administrator of the middle tier needs.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{Name: s.cfg.Name}
	for _, id := range s.LocalAppIDs() {
		p, ok := s.Proxy(id)
		if !ok {
			continue
		}
		g := s.hub.Group(id)
		as := AppStats{
			ID:       id,
			Name:     p.Registration().Name,
			Kind:     p.Registration().Kind,
			Buffered: p.BufferedCommands(),
			Members:  g.Members(),
			Relays:   g.Relays(),
			LogLen:   s.store.ApplicationLog(id).Len(),
		}
		if holder, held := s.locks.Holder(id); held {
			as.LockHolder = holder
		}
		cls := collabLogStats(g.LogInfo())
		as.Collab = &cls
		resp.Apps = append(resp.Apps, as)
	}
	for _, sess := range s.sessions.List() {
		dropped, hw := sess.Buffer.Stats()
		resp.Sessions = append(resp.Sessions, SessionStats{
			ClientID:  sess.ClientID,
			User:      sess.User,
			App:       sess.App(),
			Buffered:  sess.Buffer.Len(),
			Dropped:   dropped,
			HighWater: hw,
		})
	}
	if sp, ok := s.federation().(StatsProvider); ok {
		resp.Relays = sp.RelayStats()
		ws := sp.WireStats()
		resp.Wire = &ws
	}
	if hp, ok := s.federation().(HealthProvider); ok {
		resp.PeerHealth = hp.PeerHealth()
	}
	if dp, ok := s.federation().(DirectoryProvider); ok {
		ds := dp.DirectoryStats()
		resp.Directory = &ds
	}
	es := s.EdgeStats()
	resp.Edge = &es
	if ss, ok := s.StorageStats(); ok {
		resp.Storage = &ss
	}
	writeJSON(w, http.StatusOK, resp)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeErrCode writes the uniform error envelope for an explicit code.
func writeErrCode(w http.ResponseWriter, code ErrCode, msg string, retryAfterMS int64) {
	writeJSON(w, code.httpStatus(), ErrorResponse{Error: ErrorBody{
		Code: code, Message: msg, RetryAfterMS: retryAfterMS,
	}})
}

// writeErr classifies err into the error-code registry and writes the
// envelope. Errors carrying their own code (Coder, e.g. the substrate's
// ErrPeerDown) win; rate/overload codes get the retry hint.
func (s *Server) writeErr(w http.ResponseWriter, err error) {
	code := CodeOf(err)
	var retryMS int64
	switch code {
	case CodeRateLimited, CodeOverloaded, CodeShuttingDown:
		retryMS = s.gate.retryAfter.Milliseconds()
	}
	writeErrCode(w, code, err.Error(), retryMS)
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeErrCode(w, CodeBadRequest, "bad request body: "+err.Error(), 0)
		return false
	}
	return true
}

// lookupSession resolves and validates the client's session, applying
// the per-session admission bucket.
func (s *Server) lookupSession(w http.ResponseWriter, clientID string) (*session.Session, bool) {
	sess, ok := s.sessions.Get(clientID)
	if !ok {
		writeErrCode(w, CodeSessionNotFound, "unknown client id", 0)
		return nil, false
	}
	if !s.gate.allowSession(clientID) {
		s.gate.shed(CodeRateLimited)
		writeErrCode(w, CodeRateLimited, "session request rate exceeded",
			s.gate.retryAfter.Milliseconds())
		return nil, false
	}
	if err := s.auth.VerifyToken(sess.Token); err != nil {
		writeErrCode(w, CodeUnauthorized, err.Error(), 0)
		return nil, false
	}
	return sess, true
}

func (s *Server) handleLogin(w http.ResponseWriter, r *http.Request) {
	var req LoginRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if !s.gate.allowLogin(req.User) {
		s.gate.shed(CodeRateLimited)
		writeErrCode(w, CodeRateLimited, "login rate exceeded for user",
			s.gate.retryAfter.Milliseconds())
		return
	}
	sess, err := s.Login(r.Context(), req.User, req.Secret)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, LoginResponse{
		ClientID: sess.ClientID,
		Token:    sess.Token.Encode(),
		Server:   s.cfg.Name,
	})
}

// handleAttach resumes a detached portal: the paper's clients are
// "detachable" — the session, its FIFO buffer, application binding and
// capability live at the server, so a portal can disconnect and re-attach
// (from another browser, even) with its client-id and token.
func (s *Server) handleAttach(w http.ResponseWriter, r *http.Request) {
	var req AttachRequest
	if !decodeBody(w, r, &req) {
		return
	}
	sess, ok := s.sessions.Get(req.ClientID)
	if !ok {
		writeErrCode(w, CodeSessionNotFound, "unknown client id", 0)
		return
	}
	tok, err := auth.ParseToken(req.Token)
	if err != nil {
		writeErrCode(w, CodeUnauthorized, err.Error(), 0)
		return
	}
	if err := s.auth.VerifyToken(tok); err != nil || tok.User != sess.User {
		writeErrCode(w, CodeUnauthorized, "token does not match session", 0)
		return
	}
	resp := AttachResponse{User: sess.User, App: sess.App(), Buffered: sess.Buffer.Len()}
	if resp.App != "" {
		resp.Privilege = sess.Capability().Priv.String()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleLogout(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ClientID string `json:"clientId"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	if sess, ok := s.sessions.Peek(req.ClientID); ok {
		s.Logout(r.Context(), sess)
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) handleApps(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(w, r.URL.Query().Get("client"))
	if !ok {
		return
	}
	ctx, tr := s.traceCtx(r, "apps")
	apps := s.Apps(ctx, sess.User)
	tr.Finish()
	if apps == nil {
		apps = []AppInfo{}
	}
	writeJSON(w, http.StatusOK, AppsResponse{Apps: apps})
}

func (s *Server) handleConnect(w http.ResponseWriter, r *http.Request) {
	var req ConnectRequest
	if !decodeBody(w, r, &req) {
		return
	}
	sess, ok := s.lookupSession(w, req.ClientID)
	if !ok {
		return
	}
	ctx, tr := s.traceCtx(r, "connect "+req.App)
	cap, err := s.ConnectApp(ctx, sess, req.App)
	tr.Finish()
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ConnectResponse{App: req.App, Privilege: cap.Priv.String()})
}

func (s *Server) handleDisconnect(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ClientID string `json:"clientId"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	sess, ok := s.lookupSession(w, req.ClientID)
	if !ok {
		return
	}
	s.DisconnectApp(r.Context(), sess)
	writeJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) handleCommand(w http.ResponseWriter, r *http.Request) {
	var req CommandRequest
	if !decodeBody(w, r, &req) {
		return
	}
	sess, ok := s.lookupSession(w, req.ClientID)
	if !ok {
		return
	}
	params := make([]wire.Param, 0, len(req.Params))
	for k, v := range req.Params {
		params = append(params, wire.Param{Key: k, Value: v})
	}
	ctx, tr := s.traceCtx(r, "command "+req.Op)
	cmd, err := s.SubmitCommand(ctx, sess, req.Op, params)
	tr.Finish()
	if err != nil {
		s.writeErr(w, err)
		return
	}
	resp := CommandResponse{Seq: cmd.Seq}
	if tr != nil {
		resp.TraceID = tr.ID().String()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleLock(w http.ResponseWriter, r *http.Request) {
	var req LockRequestBody
	if !decodeBody(w, r, &req) {
		return
	}
	sess, ok := s.lookupSession(w, req.ClientID)
	if !ok {
		return
	}
	ctx, tr := s.traceCtx(r, "lock")
	granted, holder, err := s.LockOp(ctx, sess, req.Acquire)
	tr.Finish()
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, LockResponse{Granted: granted, Holder: holder})
}

func (s *Server) handleChat(w http.ResponseWriter, r *http.Request) {
	var req ChatRequest
	if !decodeBody(w, r, &req) {
		return
	}
	sess, ok := s.lookupSession(w, req.ClientID)
	if !ok {
		return
	}
	ctx, tr := s.traceCtx(r, "chat")
	err := s.Chat(ctx, sess, req.Text)
	tr.Finish()
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) handleWhiteboard(w http.ResponseWriter, r *http.Request) {
	var req WhiteboardRequest
	if !decodeBody(w, r, &req) {
		return
	}
	sess, ok := s.lookupSession(w, req.ClientID)
	if !ok {
		return
	}
	ctx, tr := s.traceCtx(r, "whiteboard")
	err := s.Whiteboard(ctx, sess, req.Stroke)
	tr.Finish()
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) handleShare(w http.ResponseWriter, r *http.Request) {
	var req ShareRequest
	if !decodeBody(w, r, &req) {
		return
	}
	sess, ok := s.lookupSession(w, req.ClientID)
	if !ok {
		return
	}
	ctx, tr := s.traceCtx(r, "share")
	err := s.ShareView(ctx, sess, req.View)
	tr.Finish()
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) handleCollab(w http.ResponseWriter, r *http.Request) {
	var req CollabRequest
	if !decodeBody(w, r, &req) {
		return
	}
	sess, ok := s.lookupSession(w, req.ClientID)
	if !ok {
		return
	}
	if req.Enabled != nil {
		if err := s.SetCollaboration(sess, *req.Enabled); err != nil {
			s.writeErr(w, err)
			return
		}
	}
	if req.Sub != nil {
		if err := s.JoinSubGroup(r.Context(), sess, *req.Sub); err != nil {
			s.writeErr(w, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

// handleSessionCollab serves the typed collaboration resource. A session
// that switched collaboration off can still read it (the resource is how
// a portal decides whether to switch back on); only a session with no
// live group gets an error.
func (s *Server) handleSessionCollab(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(w, r.PathValue("id"))
	if !ok {
		return
	}
	appID := sess.App()
	if appID == "" {
		s.writeErr(w, ErrNotConnected)
		return
	}
	g, found := s.hub.Lookup(appID)
	if !found {
		s.writeErr(w, ErrGroupNotFound)
		return
	}
	enabled, sub, _ := g.Member(sess.ClientID)
	resp := CollabInfoResponse{
		App: appID, Enabled: enabled, Sub: sub,
		Members: g.Members(), Relays: g.Relays(),
		Group: g.ConvergedMembers(),
		Log:   collabLogStats(g.LogInfo()),
	}
	if resp.Members == nil {
		resp.Members = []string{}
	}
	if resp.Group == nil {
		resp.Group = []collab.MemberState{}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSessionWhiteboard replays whiteboard strokes with ApplySeq past
// the ?from= watermark (0 = everything), in this domain's apply order.
// The returned watermark resumes the next call, exactly like SSE event
// ids resume a stream.
func (s *Server) handleSessionWhiteboard(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(w, r.PathValue("id"))
	if !ok {
		return
	}
	appID := sess.App()
	if appID == "" {
		s.writeErr(w, ErrNotConnected)
		return
	}
	g, found := s.hub.Lookup(appID)
	if !found {
		s.writeErr(w, ErrGroupNotFound)
		return
	}
	var from uint64
	if raw := r.URL.Query().Get("from"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			s.writeErr(w, ErrBadWatermark)
			return
		}
		from = v
	}
	if from > g.ApplyHead() {
		s.writeErr(w, ErrBadWatermark)
		return
	}
	strokes, last, missed := g.StrokesSince(from)
	if strokes == nil {
		strokes = []collab.StrokeEntry{}
	}
	writeJSON(w, http.StatusOK, WhiteboardResponse{Strokes: strokes, Watermark: last, Missed: missed})
}

func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	sess, ok := s.lookupSession(w, q.Get("client"))
	if !ok {
		return
	}
	from, _ := strconv.ParseUint(q.Get("from"), 10, 64)
	entries, err := s.Replay(sess, from)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	if entries == nil {
		entries = []archive.Entry{}
	}
	writeJSON(w, http.StatusOK, ReplayResponse{Entries: entries})
}

func (s *Server) handleRecords(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	sess, ok := s.lookupSession(w, q.Get("client"))
	if !ok {
		return
	}
	table := q.Get("table")
	filter := make(map[string]string)
	for key, vals := range q {
		if strings.HasPrefix(key, "f.") && len(vals) > 0 {
			filter[strings.TrimPrefix(key, "f.")] = vals[0]
		}
	}
	records, err := s.QueryRecords(sess, table, filter)
	if err != nil {
		writeErrCode(w, CodeNotFound, err.Error(), 0)
		return
	}
	views := make([]RecordView, 0, len(records))
	for _, rec := range records {
		views = append(views, RecordView{ID: rec.ID, Owner: rec.Owner, Fields: rec.Fields})
	}
	writeJSON(w, http.StatusOK, RecordsResponse{Records: views})
}

func (s *Server) handleUsers(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.lookupSession(w, r.URL.Query().Get("client")); !ok {
		return
	}
	users := s.LoggedInUsers()
	if users == nil {
		users = []string{}
	}
	writeJSON(w, http.StatusOK, UsersResponse{Users: users})
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, InfoResponse{
		Name:     s.cfg.Name,
		Apps:     len(s.LocalAppIDs()),
		Sessions: s.sessions.Len(),
	})
}
