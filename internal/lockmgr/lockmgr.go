package lockmgr

import (
	"context"
	"errors"
	"sync"
	"time"

	"discover/internal/storage"
	"discover/internal/telemetry"
)

// DefaultLease is how long a granted lock lives without renewal.
const DefaultLease = 30 * time.Second

// Errors.
var (
	ErrNotHolder = errors.New("lockmgr: caller does not hold the lock")
	ErrHeld      = errors.New("lockmgr: lock held by another owner")
)

type waiter struct {
	owner string
	lease time.Duration
	grant chan struct{} // closed when granted or failed
	err   error         // set before closing grant when the wait failed
	done  <-chan struct{}
}

type lock struct {
	holder  string
	expires time.Time
	queue   []*waiter
	timer   *time.Timer
}

// Manager is the per-server lock table. Owners are opaque strings; the
// server uses "clientID" for local steerers and "server/<name>/clientID"
// for relayed remote steerers.
type Manager struct {
	mu           sync.Mutex
	locks        map[string]*lock
	defaultLease time.Duration
	journal      storage.Recorder     // nil = durability off
	acquireHist  *telemetry.Histogram // request-to-grant latency
}

// Option configures a Manager.
type Option func(*Manager)

// WithLease sets the default lease duration.
func WithLease(d time.Duration) Option { return func(m *Manager) { m.defaultLease = d } }

// WithJournal event-sources the lock table through a WAL recorder:
// every grant and release (explicit, expiry, break, failover) is
// journaled, so replaying the log yields the final holder of each lock.
func WithJournal(r storage.Recorder) Option { return func(m *Manager) { m.journal = r } }

// NewManager returns an empty lock table.
func NewManager(opts ...Option) *Manager {
	m := &Manager{
		locks:        make(map[string]*lock),
		defaultLease: DefaultLease,
		acquireHist:  telemetry.GetHistogram("discover_lock_acquire_seconds"),
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// TryAcquire attempts to take the steering lock for app without waiting.
// Re-acquiring by the current holder renews the lease. Returns whether
// the lock was granted and the current holder either way.
func (m *Manager) TryAcquire(app, owner string, lease time.Duration) (granted bool, holder string) {
	if lease <= 0 {
		lease = m.defaultLease
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	l := m.lockFor(app)
	m.reapLocked(app, l)
	if l.holder == "" || l.holder == owner {
		m.grantLocked(app, l, owner, lease)
		m.acquireHist.Observe(0) // uncontended grant
		return true, owner
	}
	return false, l.holder
}

// Acquire takes the lock, waiting in FIFO order behind the current holder
// and earlier waiters until ctx is done.
func (m *Manager) Acquire(ctx context.Context, app, owner string, lease time.Duration) error {
	if lease <= 0 {
		lease = m.defaultLease
	}
	t0 := time.Now()
	m.mu.Lock()
	l := m.lockFor(app)
	m.reapLocked(app, l)
	if l.holder == "" || l.holder == owner {
		m.grantLocked(app, l, owner, lease)
		m.mu.Unlock()
		m.acquireHist.Observe(time.Since(t0))
		return nil
	}
	w := &waiter{owner: owner, lease: lease, grant: make(chan struct{}), done: ctx.Done()}
	l.queue = append(l.queue, w)
	m.mu.Unlock()

	select {
	case <-w.grant:
		if w.err == nil {
			m.acquireHist.Observe(time.Since(t0))
		}
		return w.err
	case <-ctx.Done():
		m.mu.Lock()
		// Remove ourselves if still queued; if we were granted in the
		// race, release so the next waiter proceeds.
		granted := true
		for i, q := range l.queue {
			if q == w {
				l.queue = append(l.queue[:i], l.queue[i+1:]...)
				granted = false
				break
			}
		}
		if granted && l.holder == owner {
			m.releaseLocked(app, l, owner)
		}
		m.mu.Unlock()
		return ctx.Err()
	}
}

// Release gives the lock up; it passes to the next queued waiter.
func (m *Manager) Release(app, owner string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.locks[app]
	if !ok {
		return ErrNotHolder
	}
	m.reapLocked(app, l)
	if l.holder != owner {
		return ErrNotHolder
	}
	m.releaseLocked(app, l, owner)
	return nil
}

// Holder reports the current lock holder for app, if any.
func (m *Manager) Holder(app string) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.locks[app]
	if !ok {
		return "", false
	}
	m.reapLocked(app, l)
	if l.holder == "" {
		return "", false
	}
	return l.holder, true
}

// QueueLen reports how many requesters wait for app's lock.
func (m *Manager) QueueLen(app string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.locks[app]
	if !ok {
		return 0
	}
	return len(l.queue)
}

// Break forcibly clears the lock and queue for app (application exit).
func (m *Manager) Break(app string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.locks[app]
	if !ok {
		return
	}
	if l.timer != nil {
		l.timer.Stop()
	}
	if l.holder != "" && m.journal != nil {
		m.journal.Record(storage.KindLockRelease,
			storage.LockReleaseEvent{App: app, Owner: l.holder})
	}
	for _, w := range l.queue {
		close(w.grant) // granted-on-break: waiters find the app gone anyway
	}
	delete(m.locks, app)
}

// ReleaseAllOwnedBy releases every lock held by owner (client departure)
// and removes it from every queue. Returns the apps whose locks moved.
func (m *Manager) ReleaseAllOwnedBy(owner string) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var apps []string
	for app, l := range m.locks {
		for i := 0; i < len(l.queue); {
			if l.queue[i].owner == owner {
				l.queue = append(l.queue[:i], l.queue[i+1:]...)
			} else {
				i++
			}
		}
		if l.holder == owner {
			m.releaseLocked(app, l, owner)
			apps = append(apps, app)
		}
	}
	return apps
}

// FailOwners fails every waiter and releases every holder whose owner
// matches, waking blocked Acquire calls with reason instead of leaving
// them to ride out the host's RPC timeout or lease. The server uses it
// when a peer dies: all lock state owned by that peer's clients is torn
// down at once. Returns the apps whose lock state changed.
func (m *Manager) FailOwners(match func(owner string) bool, reason error) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var apps []string
	for app, l := range m.locks {
		changed := false
		for i := 0; i < len(l.queue); {
			if match(l.queue[i].owner) {
				w := l.queue[i]
				l.queue = append(l.queue[:i], l.queue[i+1:]...)
				w.err = reason
				close(w.grant)
				changed = true
			} else {
				i++
			}
		}
		if l.holder != "" && match(l.holder) {
			m.releaseLocked(app, l, l.holder)
			changed = true
		} else if l.holder == "" && len(l.queue) == 0 {
			delete(m.locks, app)
		}
		if changed {
			apps = append(apps, app)
		}
	}
	return apps
}

// Holders snapshots the current holder of every held lock (for domain
// snapshots), expiring stale leases on the way.
func (m *Manager) Holders() map[string]string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]string)
	for app, l := range m.locks {
		m.reapLocked(app, l)
		if l.holder != "" {
			out[app] = l.holder
		}
	}
	return out
}

// Reassert installs owner as app's holder with a fresh lease — the
// recovery path re-granting locks that were held when the domain died.
// The grant is journaled like any other, so the reasserted state is
// itself durable.
func (m *Manager) Reassert(app, owner string, lease time.Duration) {
	if lease <= 0 {
		lease = m.defaultLease
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.grantLocked(app, m.lockFor(app), owner, lease)
}

func (m *Manager) lockFor(app string) *lock {
	l, ok := m.locks[app]
	if !ok {
		l = &lock{}
		m.locks[app] = l
	}
	return l
}

// reapLocked expires a stale holder and promotes the next waiter.
func (m *Manager) reapLocked(app string, l *lock) {
	if l.holder != "" && time.Now().After(l.expires) {
		m.releaseLocked(app, l, l.holder)
	}
}

// grantLocked installs owner as holder and arms the lease timer.
func (m *Manager) grantLocked(app string, l *lock, owner string, lease time.Duration) {
	l.holder = owner
	l.expires = time.Now().Add(lease)
	if l.timer != nil {
		l.timer.Stop()
	}
	l.timer = time.AfterFunc(lease, func() { m.expire(app, owner) })
	if m.journal != nil {
		m.journal.Record(storage.KindLockGrant,
			storage.LockGrantEvent{App: app, Owner: owner})
	}
}

// expire runs when a lease timer fires.
func (m *Manager) expire(app, owner string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.locks[app]
	if !ok || l.holder != owner {
		return
	}
	if time.Now().Before(l.expires) {
		return // lease was renewed
	}
	m.releaseLocked(app, l, owner)
}

// releaseLocked hands the lock to the next live waiter, if any.
func (m *Manager) releaseLocked(app string, l *lock, owner string) {
	if l.timer != nil {
		l.timer.Stop()
		l.timer = nil
	}
	l.holder = ""
	if m.journal != nil {
		m.journal.Record(storage.KindLockRelease,
			storage.LockReleaseEvent{App: app, Owner: owner})
	}
	for len(l.queue) > 0 {
		w := l.queue[0]
		l.queue = l.queue[1:]
		select {
		case <-w.done:
			continue // waiter gave up
		default:
		}
		m.grantLocked(app, l, w.owner, w.lease)
		close(w.grant)
		return
	}
	if len(l.queue) == 0 && l.holder == "" {
		delete(m.locks, app)
	}
}
