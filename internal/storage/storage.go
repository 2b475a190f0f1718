// Package storage is the durability layer under a domain (ROADMAP item
// 1): an append-only write-ahead log of domain mutations plus periodic
// snapshots, behind a Backend interface so tests (over the in-memory
// storagetest.Memory) share one code path with the file-backed
// production mode.
//
// The contract is event sourcing: every mutating path in the domain —
// session create/close, delivery-queue pushes, lock grant/release,
// archive appends, record create/grant/delete — records a typed event
// through a Recorder before (or while) applying it in memory. Recovery
// is the inverse: load the newest snapshot, replay every WAL record past
// the snapshot's sequence number, and the domain is back where it
// crashed. Replay application is idempotent (events carry their own
// identity), so a snapshot taken concurrently with appends is safe: the
// few records straddling the snapshot boundary simply re-apply.
//
// Torn tails are expected, not fatal. A crash mid-write leaves a partial
// record at the end of the last WAL segment; opening the backend scans
// forward, keeps every record whose length and CRC check out, and
// truncates the rest — the domain boots with a strict prefix of history
// rather than refusing to start.
package storage

import (
	"time"

	"discover/internal/wire"
)

// Record is one WAL entry: a monotonically increasing sequence number, a
// kind tag naming the event type, and the JSON-encoded event payload.
type Record struct {
	Seq  uint64
	Kind string
	Data []byte
}

// Stats describes a backend's WAL and snapshot state.
type Stats struct {
	Backend        string // "memory" or "file"
	Appends        uint64 // records appended since open
	AppendedBytes  uint64 // payload bytes appended since open
	LastSeq        uint64 // newest record sequence number
	Snapshots      uint64 // snapshots saved since open
	SnapshotSeq    uint64 // sequence number covered by the newest snapshot
	Segments       int    // live WAL segments (1 for memory)
	TruncatedBytes uint64 // torn-tail bytes discarded at open
	CleanOpen      bool   // the previous shutdown wrote a clean marker
}

// Backend is the pluggable durability substrate: an append-only record
// log with snapshot/compaction, a small metadata store (for state that
// must survive restarts but is not event-shaped, like the auth HMAC
// key), and a clean-shutdown marker.
//
// Implementations serialize their own access; Append assigns sequence
// numbers atomically under concurrent callers.
type Backend interface {
	// Append adds a record and returns its assigned sequence number.
	Append(kind string, data []byte) (uint64, error)
	// Replay invokes fn for every retained record with Seq > afterSeq,
	// in sequence order. fn's error aborts the replay.
	Replay(afterSeq uint64, fn func(Record) error) error
	// LastSeq reports the newest assigned sequence number (0 = none).
	LastSeq() uint64

	// SaveSnapshot durably stores state as the snapshot covering every
	// record with Seq <= seq, then compacts: WAL segments wholly covered
	// by the snapshot are dropped.
	SaveSnapshot(state []byte, seq uint64) error
	// LoadSnapshot returns the newest snapshot and its covered sequence
	// number; (nil, 0, nil) when no snapshot exists.
	LoadSnapshot() ([]byte, uint64, error)

	// SetMeta durably stores a small named value; GetMeta reads it back.
	SetMeta(key string, value []byte) error
	GetMeta(key string) ([]byte, bool)

	// Sync flushes appended records to stable storage (fsync for the
	// file backend; a no-op for memory).
	Sync() error
	// MarkClean syncs and writes the clean-shutdown marker. The marker
	// is consumed at the next open: WasClean reports (and clears) it.
	MarkClean() error
	// WasClean reports whether the previous shutdown wrote a clean
	// marker before this open.
	WasClean() bool

	// Stats snapshots the backend counters.
	Stats() Stats
	// Close releases file handles. It does NOT mark the shutdown clean;
	// callers that drained properly call MarkClean first.
	Close() error
}

// Recorder is the narrow journaling surface the domain subsystems
// (session, lockmgr, archive, recorddb) depend on: record one typed
// event. A nil Recorder everywhere means durability is off.
type Recorder interface {
	Record(kind string, v any)
}

// Event kinds. One constant per mutating path; payload structs below.
const (
	KindSessionCreate     = "session.create"
	KindSessionRemove     = "session.remove"
	KindSessionConnect    = "session.connect"
	KindSessionDisconnect = "session.disconnect"
	KindQueuePush         = "queue.push"
	KindLockGrant         = "lock.grant"
	KindLockRelease       = "lock.release"
	KindArchiveAppend     = "archive.append"
	KindRecordInsert      = "record.insert"
	KindRecordGrant       = "record.grant"
	KindRecordDelete      = "record.delete"
	KindCollabOp          = "collab.op"
)

// Archive log families, tagged on archive.append events so replay can
// route each entry to the right log.
const (
	FamilyInteraction = "interaction"
	FamilyApplication = "application"
)

// SessionCreateEvent records a minted session. Token is the encoded
// level-one credential; it re-verifies after restart because the auth
// HMAC key is persisted through the backend's meta store.
type SessionCreateEvent struct {
	ClientID string `json:"client"`
	User     string `json:"user"`
	Token    string `json:"token"`
}

// SessionRemoveEvent records a logout/expiry.
type SessionRemoveEvent struct {
	ClientID string `json:"client"`
}

// SessionConnectEvent records a session binding to an application at a
// privilege; the capability itself is re-minted on recovery.
type SessionConnectEvent struct {
	ClientID string `json:"client"`
	App      string `json:"app"`
	Priv     string `json:"priv"`
}

// SessionDisconnectEvent records a session unbinding.
type SessionDisconnectEvent struct {
	ClientID string `json:"client"`
}

// QueuePushEvent records one delivery-queue push: the per-queue sequence
// number doubles as the SSE resume token, which is what lets a restarted
// domain resume streams at their last position (and lets the streaming
// edge splice resume gaps that fell past the in-memory replay ring).
type QueuePushEvent struct {
	ClientID string        `json:"client"`
	Seq      uint64        `json:"seq"`
	At       time.Time     `json:"at"`
	Msg      *wire.Message `json:"msg"`
}

// LockGrantEvent records a steering-lock grant (acquire, waiter
// promotion, or failover hand-off — the WAL does not distinguish; the
// last grant wins on replay).
type LockGrantEvent struct {
	App   string `json:"app"`
	Owner string `json:"owner"`
}

// LockReleaseEvent records a release (explicit, lease expiry, break, or
// FailOwners teardown).
type LockReleaseEvent struct {
	App   string `json:"app"`
	Owner string `json:"owner"`
}

// ArchiveAppendEvent records one interaction- or application-log entry.
type ArchiveAppendEvent struct {
	Family string        `json:"family"` // FamilyInteraction or FamilyApplication
	App    string        `json:"app"`
	Seq    uint64        `json:"seq"`
	At     time.Time     `json:"at"`
	Client string        `json:"cl,omitempty"`
	Msg    *wire.Message `json:"msg"`
}

// RecordInsertEvent records a generated-data record creation with its
// ownership and read grants (§6.3 of the paper).
type RecordInsertEvent struct {
	Table   string            `json:"table"`
	ID      string            `json:"id"`
	Owner   string            `json:"owner"`
	At      time.Time         `json:"at"`
	Fields  map[string]string `json:"fields"`
	Readers []string          `json:"readers,omitempty"`
}

// RecordGrantEvent records a read-only grant.
type RecordGrantEvent struct {
	Table string `json:"table"`
	ID    string `json:"id"`
	User  string `json:"user"`
}

// RecordDeleteEvent records a record deletion.
type RecordDeleteEvent struct {
	Table string `json:"table"`
	ID    string `json:"id"`
}

// CollabOpEvent records one replicated collaboration-group op (stroke,
// chat line, membership change) as applied at this domain. Origin/Seq is
// the op's replica-invariant identity; ApplySeq is this domain's local
// apply watermark, persisted so HTTP whiteboard resume tokens survive a
// restart and so evicted ops can be spliced back from the WAL by either
// coordinate.
type CollabOpEvent struct {
	App      string `json:"app"`
	Origin   string `json:"origin"`
	Seq      uint64 `json:"seq"`
	Clock    uint64 `json:"clock"`
	Kind     uint8  `json:"kind"`
	Client   string `json:"client,omitempty"`
	User     string `json:"user,omitempty"`
	Sub      string `json:"sub,omitempty"`
	Text     string `json:"text,omitempty"`
	Data     []byte `json:"data,omitempty"`
	ApplySeq uint64 `json:"applySeq"`
}
