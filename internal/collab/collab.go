// Package collab implements the collaboration handler: collaboration
// groups and sub-groups, shared updates and responses, chat, whiteboard
// and explicit view sharing.
//
// All clients connected to an application form its collaboration group by
// default. Global updates are broadcast to the whole group. A client may
// disable collaboration so its own requests/responses are not broadcast,
// may still explicitly share views, and may join named sub-groups whose
// traffic stays within the sub-group.
//
// Groups can span servers: the middleware substrate joins a *relay member*
// per peer server, so an update crosses the WAN once per server rather
// than once per remote client — the traffic reduction of §5.2.3 — and
// not at all to a server with no present member.
//
// Group state (whiteboard, chat, membership) is a replicated CRDT op log
// (see replog.go): every durable mutation is an immutable op keyed by
// (origin server, per-origin seq), replicas dedupe on identity and merge
// commutatively, and anti-entropy delta sync over version-vector
// watermarks repairs whatever the live relay fan-out lost to partitions.
// Latecomers replay the converged log locally — never a catch-up call to
// the host server.
package collab

import (
	"sort"
	"sync"

	"discover/internal/telemetry"
	"discover/internal/wire"
)

// DeliverFunc delivers one message toward a member (into a local session
// FIFO, or across the substrate for relay members). It must not block.
type DeliverFunc func(m *wire.Message)

// member is one participant in a group.
type member struct {
	id      string
	deliver DeliverFunc
	enabled bool   // collaboration mode; relays are always enabled
	sub     string // sub-group name; "" is the main group
	relay   bool   // true for peer-server relay members
}

// Group is the collaboration group of one application.
type Group struct {
	app string
	hub *Hub

	mu      sync.Mutex
	members map[string]*member
	log     *opLog
}

// OpSinkFunc journals one newly applied op of a group.
type OpSinkFunc func(app string, op Op)

// Hub manages all collaboration groups at a server.
type Hub struct {
	origin string
	memCap int

	mu     sync.Mutex
	groups map[string]*Group

	sink       OpSinkFunc
	fetchRange func(app, origin string, from, to uint64) []Op
	fetchApply func(app string, fromApply, toApply uint64) []Op

	opsLocal   *telemetry.Counter
	opsApplied *telemetry.Counter
	opsDup     *telemetry.Counter
	opsEvicted *telemetry.Counter
}

// HubOption configures a Hub.
type HubOption func(*Hub)

// WithOrigin names the server this hub lives at: the origin stamped on
// locally appended ops, and the label on the hub's telemetry counters.
func WithOrigin(name string) HubOption {
	return func(h *Hub) {
		h.origin = name
		h.opsLocal = telemetry.GetCounter("discover_collab_ops_local_total", "server", name)
		h.opsApplied = telemetry.GetCounter("discover_collab_ops_applied_total", "server", name)
		h.opsDup = telemetry.GetCounter("discover_collab_ops_duplicate_total", "server", name)
		h.opsEvicted = telemetry.GetCounter("discover_collab_ops_evicted_total", "server", name)
	}
}

// WithMemCap bounds retained ops per group (0 keeps the default).
func WithMemCap(n int) HubOption {
	return func(h *Hub) { h.memCap = n }
}

// NewHub returns an empty hub.
func NewHub(opts ...HubOption) *Hub {
	h := &Hub{groups: make(map[string]*Group)}
	for _, opt := range opts {
		opt(h)
	}
	return h
}

// SetOpSink installs the journal writer invoked once per newly applied
// op (existing and future groups).
func (h *Hub) SetOpSink(sink OpSinkFunc) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sink = sink
	for _, g := range h.groups {
		g.setSink(sink)
	}
}

// SetFetchRange installs the WAL splice for evicted ops by origin range.
func (h *Hub) SetFetchRange(fetch func(app, origin string, from, to uint64) []Op) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.fetchRange = fetch
	for _, g := range h.groups {
		g.setFetchRange(fetch)
	}
}

// SetFetchApply installs the WAL splice for evicted ops by local apply
// watermark (whiteboard replay past the in-memory window).
func (h *Hub) SetFetchApply(fetch func(app string, fromApply, toApply uint64) []Op) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.fetchApply = fetch
	for _, g := range h.groups {
		g.setFetchApply(fetch)
	}
}

// Group returns the group for an application, creating it on first use.
func (h *Hub) Group(app string) *Group {
	h.mu.Lock()
	defer h.mu.Unlock()
	g, ok := h.groups[app]
	if !ok {
		g = &Group{
			app:     app,
			hub:     h,
			members: make(map[string]*member),
			log:     newOpLog(h.origin, h.memCap),
		}
		g.setSink(h.sink)
		g.setFetchRange(h.fetchRange)
		g.setFetchApply(h.fetchApply)
		h.groups[app] = g
	}
	return g
}

// Lookup returns an application's group without creating it.
func (h *Hub) Lookup(app string) (*Group, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	g, ok := h.groups[app]
	return g, ok
}

// Drop removes an application's group entirely (application exited).
func (h *Hub) Drop(app string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.groups, app)
}

// Groups lists applications with active groups.
func (h *Hub) Groups() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.groups))
	for app := range h.groups {
		out = append(out, app)
	}
	sort.Strings(out)
	return out
}

func (g *Group) setSink(sink OpSinkFunc) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if sink == nil {
		g.log.sink = nil
		return
	}
	app := g.app
	g.log.sink = func(op Op) { sink(app, op) }
}

func (g *Group) setFetchRange(fetch func(app, origin string, from, to uint64) []Op) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if fetch == nil {
		g.log.fetchRange = nil
		return
	}
	app := g.app
	g.log.fetchRange = func(origin string, from, to uint64) []Op { return fetch(app, origin, from, to) }
}

func (g *Group) setFetchApply(fetch func(app string, fromApply, toApply uint64) []Op) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if fetch == nil {
		g.log.fetchApply = nil
		return
	}
	app := g.app
	g.log.fetchApply = func(from, to uint64) []Op { return fetch(app, from, to) }
}

// Join adds a client to the group's main sub-group with collaboration
// enabled, and replays the converged whiteboard log so latecomers catch
// up from local state — never from the host server.
func (g *Group) Join(clientID string, deliver DeliverFunc) {
	g.mu.Lock()
	g.members[clientID] = &member{id: clientID, deliver: deliver, enabled: true}
	strokes, _, _ := g.log.strokesSince(0)
	g.mu.Unlock()
	for _, s := range strokes {
		m := &wire.Message{Kind: wire.KindWhiteboard, App: g.app, Client: s.Client, Data: s.Data}
		deliver(m)
	}
}

// JoinRelay adds a peer server as a relay member: it receives every group
// message exactly once and fans it out to its own local clients.
func (g *Group) JoinRelay(serverName string, deliver DeliverFunc) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.members["relay/"+serverName] = &member{
		id: "relay/" + serverName, deliver: deliver, enabled: true, relay: true,
	}
}

// Leave removes a client (or relay, by its "relay/" prefixed id).
func (g *Group) Leave(clientID string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.members, clientID)
}

// LeaveRelay removes a peer server relay.
func (g *Group) LeaveRelay(serverName string) { g.Leave("relay/" + serverName) }

// SetEnabled switches a client's collaboration mode.
func (g *Group) SetEnabled(clientID string, on bool) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	m, ok := g.members[clientID]
	if !ok {
		return false
	}
	m.enabled = on
	return true
}

// Enabled reports a client's collaboration mode.
func (g *Group) Enabled(clientID string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	m, ok := g.members[clientID]
	return ok && m.enabled
}

// Member reports a local member's collaboration mode and sub-group, and
// whether the client is a member at all.
func (g *Group) Member(clientID string) (enabled bool, sub string, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	m, in := g.members[clientID]
	if !in {
		return false, "", false
	}
	return m.enabled, m.sub, true
}

// JoinSub moves a client into a named sub-group ("" returns it to the
// main group).
func (g *Group) JoinSub(clientID, sub string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	m, ok := g.members[clientID]
	if !ok {
		return false
	}
	m.sub = sub
	return true
}

// Sub reports the client's sub-group.
func (g *Group) Sub(clientID string) string {
	g.mu.Lock()
	defer g.mu.Unlock()
	if m, ok := g.members[clientID]; ok {
		return m.sub
	}
	return ""
}

// Members lists client ids (excluding relays), sorted.
func (g *Group) Members() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, 0, len(g.members))
	for id, m := range g.members {
		if !m.relay {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Relays lists relay member server names, sorted.
func (g *Group) Relays() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []string
	for id, m := range g.members {
		if m.relay {
			out = append(out, id[len("relay/"):])
		}
	}
	sort.Strings(out)
	return out
}

// snapshot returns copies of the current members: callers read their
// mode and sub-group after the lock is released, while SetEnabled and
// JoinSub keep writing the originals under it. With listening set, relay
// members of servers that have no present member in the converged
// membership fold are left out.
func (g *Group) snapshot(listening bool) []member {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]member, 0, len(g.members))
	for _, m := range g.members {
		if listening && m.relay && g.log.present[m.id[len("relay/"):]] == 0 {
			continue
		}
		out = append(out, *m)
	}
	return out
}

// Listening reports whether the named server has at least one present
// member in the group's converged membership fold.
func (g *Group) Listening(serverName string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.log.present[serverName] > 0
}

// BroadcastUpdate delivers a global application update to every member:
// all clients (regardless of collaboration mode — status is never
// private) and every relay. except suppresses one member (typically the
// relay the message arrived from, to prevent echo).
func (g *Group) BroadcastUpdate(m *wire.Message, except string) int {
	return g.broadcast(g.snapshot(false), m, except)
}

// BroadcastToListeners is BroadcastUpdate for traffic that is not
// replicated: it skips the relay of every server with no present member,
// so an update crosses the WAN only to servers where someone listens.
func (g *Group) BroadcastToListeners(m *wire.Message, except string) int {
	return g.broadcast(g.snapshot(true), m, except)
}

func (g *Group) broadcast(members []member, m *wire.Message, except string) int {
	n := 0
	for _, mem := range members {
		if mem.id == except {
			continue
		}
		mem.deliver(m)
		n++
	}
	return n
}

// RelayBroadcast delivers a message to relay members only, skipping the
// relay of exceptServer (echo prevention). Used for membership ops,
// which replicate between servers but are not client-visible traffic.
func (g *Group) RelayBroadcast(m *wire.Message, exceptServer string) int {
	n := 0
	for _, mem := range g.snapshot(false) {
		if !mem.relay || mem.id == "relay/"+exceptServer {
			continue
		}
		mem.deliver(m)
		n++
	}
	return n
}

// ShareResponse delivers a client's command response. The requester
// always receives it; if the requester has collaboration enabled it is
// also broadcast to the requester's sub-group peers (enabled ones) and,
// like BroadcastToListeners, to the relays of servers with a present
// member.
func (g *Group) ShareResponse(requester string, m *wire.Message) int {
	g.mu.Lock()
	req, ok := g.members[requester]
	var sub string
	var share bool
	if ok {
		sub = req.sub
		share = req.enabled
	}
	g.mu.Unlock()

	n := 0
	if ok {
		req.deliver(m)
		n++
	}
	if !share {
		return n
	}
	for _, mem := range g.snapshot(true) {
		if mem.id == requester {
			continue
		}
		if mem.relay || (mem.enabled && mem.sub == sub) {
			mem.deliver(m)
			n++
		}
	}
	return n
}

// DeliverToRelay sends one message to a specific peer-server relay,
// returning false if that server has no relay joined. Used to route a
// remote client's response to exactly its own server.
func (g *Group) DeliverToRelay(serverName string, m *wire.Message) bool {
	g.mu.Lock()
	mem, ok := g.members["relay/"+serverName]
	g.mu.Unlock()
	if !ok {
		return false
	}
	mem.deliver(m)
	return true
}

// ShareView explicitly shares a view with the sender's sub-group,
// regardless of the sender's collaboration mode (the paper: "Individual
// views can still be explicitly shared in this mode").
func (g *Group) ShareView(from string, m *wire.Message) int {
	g.mu.Lock()
	sender, ok := g.members[from]
	var sub string
	if ok {
		sub = sender.sub
	}
	g.mu.Unlock()
	if !ok {
		return 0
	}
	n := 0
	for _, mem := range g.snapshot(false) {
		if mem.id == from {
			continue
		}
		if mem.relay || mem.sub == sub {
			mem.deliver(m)
			n++
		}
	}
	return n
}

// Chat appends a chat op to the replicated log and broadcasts it to the
// sender's sub-group and relays. The returned message carries the op
// identity for cross-server forwarding.
func (g *Group) Chat(from, user, text string) (*wire.Message, int) {
	g.mu.Lock()
	op := g.log.append(OpChat, from, user, "", text, nil, 0)
	g.mu.Unlock()
	g.metricLocal()
	m := opMessage(g.app, op)
	return m, g.ShareView(from, m)
}

// Whiteboard appends a stroke op and broadcasts it; the converged log
// retains it (bounded, with journal fallback) so Join can replay it to
// latecomers.
func (g *Group) Whiteboard(from string, stroke []byte) (*wire.Message, int) {
	g.mu.Lock()
	op := g.log.append(OpStroke, from, "", "", "", stroke, 0)
	g.mu.Unlock()
	g.metricLocal()
	m := opMessage(g.app, op)
	return m, g.ShareView(from, m)
}

// NoteJoin appends a membership-join op for a local client and returns
// the message to disseminate to peer servers.
func (g *Group) NoteJoin(clientID string) *wire.Message {
	g.mu.Lock()
	op := g.log.append(OpJoin, clientID, "", "", "", nil, 0)
	g.mu.Unlock()
	g.metricLocal()
	return opMessage(g.app, op)
}

// NoteLeave appends a membership-leave op for a local client.
func (g *Group) NoteLeave(clientID string) *wire.Message {
	g.mu.Lock()
	op := g.log.append(OpLeave, clientID, "", "", "", nil, 0)
	g.mu.Unlock()
	g.metricLocal()
	return opMessage(g.app, op)
}

// NoteSub appends a sub-group switch op for a local client.
func (g *Group) NoteSub(clientID, sub string) *wire.Message {
	g.mu.Lock()
	op := g.log.append(OpSub, clientID, "", sub, "", nil, 0)
	g.mu.Unlock()
	g.metricLocal()
	return opMessage(g.app, op)
}

// ApplyWire merges a collaboration message that arrived from a peer
// server into the replicated log. It reports whether the message was new
// — duplicates (relay echo overlapping anti-entropy sync, re-delivery
// after reconnect) return false so callers suppress the re-broadcast. A
// message without op identity cannot be deduplicated or replicated, so
// it is refused the same way.
func (g *Group) ApplyWire(m *wire.Message) bool {
	op, ok := opFromMessage(m)
	if !ok {
		return false
	}
	g.mu.Lock()
	applied := g.log.apply(op)
	g.mu.Unlock()
	if applied {
		g.metricApplied()
	} else {
		g.metricDup()
	}
	return applied
}

// ApplyOps merges a batch of ops from anti-entropy sync, returning the
// newly applied ones (for local re-broadcast).
func (g *Group) ApplyOps(ops []Op) []Op {
	var fresh []Op
	g.mu.Lock()
	for _, op := range ops {
		if g.log.apply(op) {
			fresh = append(fresh, op)
		}
	}
	g.mu.Unlock()
	for range fresh {
		g.metricApplied()
	}
	for i := 0; i < len(ops)-len(fresh); i++ {
		g.metricDup()
	}
	return fresh
}

// RestoreOp re-applies a journaled op during crash recovery.
func (g *Group) RestoreOp(op Op) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.log.restore(op)
}

// OpMessage renders an op back into its client-visible wire message.
func (g *Group) OpMessage(op Op) *wire.Message { return opMessage(g.app, op) }

// LogVV returns the group's anti-entropy watermark vector.
func (g *Group) LogVV() map[string]uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.log.vv()
}

// LogDeltas returns the ops a partner with the given watermark vector is
// missing, the watermarks it may adopt, and whether eviction truncated
// the response.
func (g *Group) LogDeltas(vv map[string]uint64) ([]Op, map[string]uint64, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.log.deltasSince(vv)
}

// LogApplyUpTo raises the watermarks after a completed delta exchange
// (call after the deltas themselves were applied).
func (g *Group) LogApplyUpTo(upTo map[string]uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.log.applyUpTo(upTo)
}

// LogHash is the order-independent fingerprint of the applied op set:
// equal hashes mean converged replicas.
func (g *Group) LogHash() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.log.rootHash
}

// Materialized renders the converged group state deterministically;
// byte-identical across replicas iff they converged.
func (g *Group) Materialized() []byte {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.log.materialized()
}

// ConvergedMembers lists the cross-domain membership fold.
func (g *Group) ConvergedMembers() []MemberState {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.log.convergedMembers()
}

// StrokesSince replays converged whiteboard strokes after a local apply
// watermark (0 = from the beginning), splicing evicted strokes from the
// journal. Returns the entries, the head watermark to resume from, and
// how many evicted strokes could not be spliced.
func (g *Group) StrokesSince(from uint64) ([]StrokeEntry, uint64, int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.log.strokesSince(from)
}

// ApplyHead is the group's current local apply watermark.
func (g *Group) ApplyHead() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.log.applySeq
}

// LogWatermark describes one origin's position in the log.
type LogWatermark struct {
	Seq    uint64 `json:"seq"`    // highest sequence seen from this origin
	Synced uint64 `json:"synced"` // anti-entropy watermark
}

// LogInfo is a point-in-time summary of the group's replicated log.
type LogInfo struct {
	Origin     string
	Ops        int // applied ops, retained + evicted
	Retained   int
	Evicted    int
	Strokes    int
	Chats      int
	ApplyHead  uint64
	Hash       uint64
	Watermarks map[string]LogWatermark
}

// LogInfo summarizes the replicated log for stats and the collab API.
func (g *Group) LogInfo() LogInfo {
	g.mu.Lock()
	defer g.mu.Unlock()
	info := LogInfo{
		Origin:     g.log.self,
		Ops:        g.log.retained + g.log.evicted,
		Retained:   g.log.retained,
		Evicted:    g.log.evicted,
		Strokes:    g.log.strokes + g.log.evictedStrokes,
		Chats:      g.log.chats,
		ApplyHead:  g.log.applySeq,
		Hash:       g.log.rootHash,
		Watermarks: make(map[string]LogWatermark, len(g.log.origins)),
	}
	for name, st := range g.log.origins {
		info.Watermarks[name] = LogWatermark{Seq: st.maxSeq, Synced: st.synced}
	}
	return info
}

// SnapshotLog captures the log for a domain snapshot.
func (g *Group) SnapshotLog() LogSnapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.log.snapshotLog()
}

// RestoreLog replaces the log from a domain snapshot image.
func (g *Group) RestoreLog(snap LogSnapshot) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.log.restoreLog(snap)
}

// WhiteboardLen reports the applied stroke count (retained + evicted).
func (g *Group) WhiteboardLen() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.log.strokes + g.log.evictedStrokes
}

func (g *Group) metricLocal() {
	if c := g.hub.opsLocal; c != nil {
		c.Inc()
	}
}

func (g *Group) metricApplied() {
	if c := g.hub.opsApplied; c != nil {
		c.Inc()
	}
}

func (g *Group) metricDup() {
	if c := g.hub.opsDup; c != nil {
		c.Inc()
	}
}

// Wire codec for op identity: collaboration messages carry their op's
// (origin, seq, clock, kind) as parameters so every server merges the
// same op exactly once no matter how many paths deliver it.
const (
	paramOrigin = "_corigin"
	paramSeq    = "_cseq"
	paramClock  = "_cclock"
	paramKind   = "_ckind"
	paramSub    = "sub"
	paramUser   = "user"
)

func opMessage(app string, op Op) *wire.Message {
	var m *wire.Message
	switch op.Kind {
	case OpStroke:
		m = &wire.Message{Kind: wire.KindWhiteboard, App: app, Client: op.Client, Data: op.Data}
	case OpChat:
		m = &wire.Message{Kind: wire.KindChat, App: app, Client: op.Client, Text: op.Text}
		m.Set(paramUser, op.User)
	case OpJoin:
		m = &wire.Message{Kind: wire.KindJoin, App: app, Client: op.Client}
	case OpLeave:
		m = &wire.Message{Kind: wire.KindLeave, App: app, Client: op.Client}
	case OpSub:
		m = &wire.Message{Kind: wire.KindJoin, App: app, Client: op.Client}
		m.Set(paramSub, op.Sub)
	default:
		m = &wire.Message{Kind: wire.KindWhiteboard, App: app, Client: op.Client, Data: op.Data}
	}
	stampOp(m, op)
	return m
}

// stampOp writes the op's replica-invariant identity onto a wire message.
func stampOp(m *wire.Message, op Op) {
	m.Set(paramOrigin, op.Origin)
	m.SetInt(paramSeq, int64(op.Seq))
	m.SetInt(paramClock, int64(op.Clock))
	m.SetInt(paramKind, int64(op.Kind))
}

// MembershipWire reports whether m is genuine membership replication
// bookkeeping: a join/leave-kinded message with no user payload whose
// op-kind stamp, when present, names a membership op. The substrate uses
// it to decide which collab traffic is exempt from the access-policy
// meter — anything else (or anything smuggling payload under a
// membership kind) is charged like user traffic.
func MembershipWire(m *wire.Message) bool {
	if m == nil || (m.Kind != wire.KindJoin && m.Kind != wire.KindLeave) {
		return false
	}
	if len(m.Data) != 0 || m.Text != "" {
		return false
	}
	if kind, ok := m.GetInt(paramKind); ok {
		switch OpKind(kind) {
		case OpJoin, OpLeave, OpSub:
		default:
			return false
		}
	}
	return true
}

func opFromMessage(m *wire.Message) (Op, bool) {
	origin, ok := m.Get(paramOrigin)
	if !ok || origin == "" {
		return Op{}, false
	}
	seq, ok := m.GetInt(paramSeq)
	if !ok || seq <= 0 {
		return Op{}, false
	}
	clock, ok := m.GetInt(paramClock)
	if !ok {
		return Op{}, false
	}
	kind, ok := m.GetInt(paramKind)
	if !ok {
		return Op{}, false
	}
	op := Op{
		Origin: origin,
		Seq:    uint64(seq),
		Clock:  uint64(clock),
		Kind:   OpKind(kind),
		Client: m.Client,
	}
	switch op.Kind {
	case OpStroke:
		op.Data = m.Data
	case OpChat:
		op.Text = m.Text
		op.User, _ = m.Get(paramUser)
	case OpSub:
		op.Sub, _ = m.Get(paramSub)
	default:
	}
	return op, true
}
