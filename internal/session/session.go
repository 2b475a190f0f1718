// Package session manages client sessions at an interaction/collaboration
// server: client identifiers, per-session state, and the per-client
// delivery queues that the paper's poll-and-pull HTTP model requires
// ("the poll and pull mechanism makes it necessary to maintain FIFO
// buffers at the server for each client to support slow clients") — and
// that the streaming edge drains over SSE (delivery.go).
package session

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"discover/internal/auth"
	"discover/internal/storage"
)

// DefaultCapacity bounds each client's delivery buffer. When a slow
// client falls this far behind, the oldest messages are dropped (and
// counted) so that one stalled browser cannot hold server memory hostage.
const DefaultCapacity = 256

// Session is one client's server-side state. The client-id plus the
// application-id identify a client-server-application session, as in the
// master servlet of the paper.
type Session struct {
	ClientID string
	User     string
	Token    auth.Token
	Buffer   *Queue

	journal storage.Recorder // nil = durability off

	mu       sync.Mutex
	app      string // application currently connected to ("" if none)
	cap      auth.Capability
	lastSeen time.Time
}

// App returns the application this session is connected to.
func (s *Session) App() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.app
}

// Capability returns the level-two capability for the connected app.
func (s *Session) Capability() auth.Capability {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cap
}

// Connect binds the session to an application with its capability.
func (s *Session) Connect(app string, cap auth.Capability) {
	s.mu.Lock()
	s.app = app
	s.cap = cap
	s.mu.Unlock()
	if s.journal != nil {
		s.journal.Record(storage.KindSessionConnect, storage.SessionConnectEvent{
			ClientID: s.ClientID, App: app, Priv: cap.Priv.String(),
		})
	}
}

// Disconnect unbinds the session from its application.
func (s *Session) Disconnect() {
	s.mu.Lock()
	s.app = ""
	s.cap = auth.Capability{}
	s.mu.Unlock()
	if s.journal != nil {
		s.journal.Record(storage.KindSessionDisconnect,
			storage.SessionDisconnectEvent{ClientID: s.ClientID})
	}
}

// RestoreBinding installs an application binding without journaling —
// the recovery path re-applies a logged connect with a freshly minted
// capability (the old one was only ever held in memory).
func (s *Session) RestoreBinding(app string, cap auth.Capability) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.app = app
	s.cap = cap
}

// LastSeen reports the last poll/request time.
func (s *Session) LastSeen() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeen
}

func (s *Session) touch(t time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastSeen = t
}

// Manager is the master-servlet session table: one lock over one map.
// The table is touched once per portal request (a lookup) and once per
// login or logout, a few hundred operations per second at most under the
// federation's benchmark workloads, orders of magnitude below the
// millions per second one lock sustains; a 16-way sharded table measured
// no faster.
type Manager struct {
	serverName string
	capacity   int
	replay     int
	now        func() time.Time
	journal    storage.Recorder // nil = durability off

	counter  atomic.Uint64
	mu       sync.Mutex
	sessions map[string]*Session
}

// Option configures a Manager.
type Option func(*Manager)

// WithCapacity sets each session's FIFO capacity.
func WithCapacity(n int) Option { return func(m *Manager) { m.capacity = n } }

// WithReplay sets each session's replay-ring length — how many delivered
// messages are retained for stream resume splicing (0 keeps
// DefaultReplay; never less than the buffer capacity).
func WithReplay(n int) Option { return func(m *Manager) { m.replay = n } }

// WithClock injects a clock for idle-expiry tests.
func WithClock(now func() time.Time) Option { return func(m *Manager) { m.now = now } }

// WithJournal event-sources the session table through a WAL recorder:
// session create/remove, app connect/disconnect, and every delivery-
// queue push are journaled so a restarted domain can rebuild its
// sessions and resume their queues at the last sequence number.
func WithJournal(r storage.Recorder) Option { return func(m *Manager) { m.journal = r } }

// NewManager creates a session manager for the named server.
func NewManager(serverName string, opts ...Option) *Manager {
	m := &Manager{
		serverName: serverName,
		capacity:   DefaultCapacity,
		now:        time.Now,
		sessions:   make(map[string]*Session),
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Create mints a session with a unique client-id for an authenticated
// user.
func (m *Manager) Create(user string, token auth.Token) *Session {
	s := m.install(fmt.Sprintf("%s/client-%d", m.serverName, m.counter.Add(1)), user, token)
	if m.journal != nil {
		m.journal.Record(storage.KindSessionCreate, storage.SessionCreateEvent{
			ClientID: s.ClientID, User: user, Token: token.Encode(),
		})
	}
	return s
}

// install builds and registers a session (shared by Create and Restore).
func (m *Manager) install(clientID, user string, token auth.Token) *Session {
	s := &Session{
		ClientID: clientID,
		User:     user,
		Token:    token,
		Buffer:   NewQueue(m.capacity, m.replay),
		journal:  m.journal,
		lastSeen: m.now(),
	}
	s.Buffer.journalTo(m.journal, clientID)
	m.mu.Lock()
	m.sessions[s.ClientID] = s
	m.mu.Unlock()
	return s
}

// Restore re-creates a session from durable state without journaling.
// If the client-id carries this server's counter form, the id counter is
// bumped past it so post-recovery Creates cannot collide. An existing
// session with the same id is returned unchanged (replay idempotence).
func (m *Manager) Restore(clientID, user string, token auth.Token) *Session {
	if s, ok := m.Peek(clientID); ok {
		return s
	}
	if rest, found := strings.CutPrefix(clientID, m.serverName+"/client-"); found {
		if n, err := strconv.ParseUint(rest, 10, 64); err == nil {
			for {
				cur := m.counter.Load()
				if cur >= n || m.counter.CompareAndSwap(cur, n) {
					break
				}
			}
		}
	}
	return m.install(clientID, user, token)
}

// Counter reports the session-id counter (for snapshots); SetCounter
// restores it, never moving backwards.
func (m *Manager) Counter() uint64 { return m.counter.Load() }

// SetCounter restores the session-id counter from a snapshot.
func (m *Manager) SetCounter(n uint64) {
	for {
		cur := m.counter.Load()
		if cur >= n || m.counter.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Get returns a session by client-id and marks it active.
func (m *Manager) Get(clientID string) (*Session, bool) {
	m.mu.Lock()
	s, ok := m.sessions[clientID]
	m.mu.Unlock()
	if ok {
		s.touch(m.now())
	}
	return s, ok
}

// Peek returns a session without touching its activity clock.
func (m *Manager) Peek(clientID string) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[clientID]
	return s, ok
}

// Remove deletes a session.
func (m *Manager) Remove(clientID string) {
	m.mu.Lock()
	_, existed := m.sessions[clientID]
	delete(m.sessions, clientID)
	m.mu.Unlock()
	if existed && m.journal != nil {
		m.journal.Record(storage.KindSessionRemove,
			storage.SessionRemoveEvent{ClientID: clientID})
	}
}

// RestoreRemove deletes a session without journaling (WAL replay).
func (m *Manager) RestoreRemove(clientID string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.sessions, clientID)
}

// Len reports the number of live sessions.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// List returns all sessions.
func (m *Manager) List() []*Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []*Session
	for _, s := range m.sessions {
		out = append(out, s)
	}
	return out
}

// Users returns the distinct logged-in user names, for the level-one
// "list users" interface.
func (m *Manager) Users() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := make(map[string]bool)
	var out []string
	for _, s := range m.sessions {
		if !seen[s.User] {
			seen[s.User] = true
			out = append(out, s.User)
		}
	}
	return out
}

// ExpireIdle removes sessions idle longer than maxIdle and returns the
// removed client ids.
func (m *Manager) ExpireIdle(maxIdle time.Duration) []string {
	cutoff := m.now().Add(-maxIdle)
	var removed []string
	m.mu.Lock()
	for id, s := range m.sessions {
		if s.LastSeen().Before(cutoff) {
			delete(m.sessions, id)
			removed = append(removed, id)
		}
	}
	m.mu.Unlock()
	if m.journal != nil {
		for _, id := range removed {
			m.journal.Record(storage.KindSessionRemove,
				storage.SessionRemoveEvent{ClientID: id})
		}
	}
	return removed
}
