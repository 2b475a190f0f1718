// Package archive implements the session archival handler's two logs
// (§5.2.5):
//
//   - the interaction log of all client↔application exchanges, which lets
//     clients replay their interactions and lets latecomers to a
//     collaboration group catch up; kept at the server the clients are
//     connected to, and
//   - the application log of all requests, responses and status messages
//     for each application, giving direct access to the entire history;
//     kept at the application's host server.
//
// Logs can be persisted to and reloaded from a stream with gob.
package archive

import (
	"encoding/gob"
	"fmt"
	"io"
	"sync"
	"time"

	"discover/internal/storage"
	"discover/internal/wire"
)

// Entry is one archived message.
type Entry struct {
	Seq    uint64
	Time   time.Time
	Client string // originating client id ("" for application-origin)
	Msg    *wire.Message
}

// Log is an append-only sequence of entries.
type Log struct {
	mu      sync.RWMutex
	entries []Entry
	nextSeq uint64

	// Durability identity: when journal is set, appends are recorded as
	// archive.append events tagged with the log's family and app id so
	// replay routes them back here.
	journal storage.Recorder
	family  string
	app     string
}

// NewLog returns an empty log. A log keeps every entry it is given.
func NewLog() *Log { return &Log{} }

// Append records a message and returns its entry.
func (l *Log) Append(client string, m *wire.Message) Entry {
	l.mu.Lock()
	l.nextSeq++
	e := Entry{Seq: l.nextSeq, Time: time.Now(), Client: client, Msg: m}
	l.entries = append(l.entries, e)
	journal := l.journal
	l.mu.Unlock()
	if journal != nil {
		journal.Record(storage.KindArchiveAppend, storage.ArchiveAppendEvent{
			Family: l.family, App: l.app,
			Seq: e.Seq, At: e.Time, Client: e.Client, Msg: e.Msg,
		})
	}
	return e
}

// restoreAppend re-applies a journaled entry during WAL replay, without
// journaling and skipping entries already covered by a snapshot.
func (l *Log) restoreAppend(e Entry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e.Seq <= l.nextSeq {
		return
	}
	l.nextSeq = e.Seq
	l.entries = append(l.entries, e)
}

// Since returns entries with Seq > seq, oldest first. Since(0) replays
// everything.
func (l *Log) Since(seq uint64) []Entry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	i := 0
	for i < len(l.entries) && l.entries[i].Seq <= seq {
		i++
	}
	out := make([]Entry, len(l.entries)-i)
	copy(out, l.entries[i:])
	return out
}

// ByClient returns the entries originated by one client.
func (l *Log) ByClient(client string) []Entry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []Entry
	for _, e := range l.entries {
		if e.Client == client {
			out = append(out, e)
		}
	}
	return out
}

// Len reports the entry count.
func (l *Log) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.entries)
}

// LastSeq reports the sequence number of the newest entry.
func (l *Log) LastSeq() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.nextSeq
}

// Save writes the log to w.
func (l *Log) Save(w io.Writer) error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	enc := gob.NewEncoder(w)
	if err := enc.Encode(l.nextSeq); err != nil {
		return fmt.Errorf("archive: save: %w", err)
	}
	if err := enc.Encode(l.entries); err != nil {
		return fmt.Errorf("archive: save: %w", err)
	}
	return nil
}

// Load replaces the log's contents from r.
func (l *Log) Load(r io.Reader) error {
	dec := gob.NewDecoder(r)
	var next uint64
	var entries []Entry
	if err := dec.Decode(&next); err != nil {
		return fmt.Errorf("archive: load: %w", err)
	}
	if err := dec.Decode(&entries); err != nil {
		return fmt.Errorf("archive: load: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextSeq = next
	l.entries = entries
	return nil
}

// Store holds the two log families keyed by application id.
type Store struct {
	mu          sync.Mutex
	interaction map[string]*Log
	application map[string]*Log
	journal     storage.Recorder // nil = durability off
}

// NewStore returns an empty store. Its logs are unbounded (DESIGN §7).
func NewStore() *Store {
	return &Store{
		interaction: make(map[string]*Log),
		application: make(map[string]*Log),
	}
}

// SetJournal event-sources the store through a WAL recorder: every
// append to either family is journaled with the log's identity so
// replay reproduces the same state trajectory (DESIGN §6 invariant).
// Call before the store sees traffic.
func (s *Store) SetJournal(r storage.Recorder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = r
	for app, l := range s.interaction {
		l.bind(r, storage.FamilyInteraction, app)
	}
	for app, l := range s.application {
		l.bind(r, storage.FamilyApplication, app)
	}
}

// bind sets a log's durability identity.
func (l *Log) bind(r storage.Recorder, family, app string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.journal = r
	l.family = family
	l.app = app
}

// InteractionLog returns (creating on demand) the client-interaction log
// for an application.
func (s *Store) InteractionLog(app string) *Log {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.interaction[app]
	if !ok {
		l = NewLog()
		l.bind(s.journal, storage.FamilyInteraction, app)
		s.interaction[app] = l
	}
	return l
}

// ApplicationLog returns (creating on demand) the full application
// history log.
func (s *Store) ApplicationLog(app string) *Log {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.application[app]
	if !ok {
		l = NewLog()
		l.bind(s.journal, storage.FamilyApplication, app)
		s.application[app] = l
	}
	return l
}

// ApplyAppend re-applies one journaled archive.append event during WAL
// replay: the entry lands in the named family's log for app, without
// re-journaling, skipping entries a snapshot already covered.
func (s *Store) ApplyAppend(family, app string, e Entry) {
	var l *Log
	switch family {
	case storage.FamilyApplication:
		l = s.ApplicationLog(app)
	default:
		l = s.InteractionLog(app)
	}
	l.restoreAppend(e)
}

// Drop discards both logs of an application.
func (s *Store) Drop(app string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.interaction, app)
	delete(s.application, app)
}

// Apps lists application ids that have at least one log.
func (s *Store) Apps() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[string]bool)
	for id := range s.interaction {
		seen[id] = true
	}
	for id := range s.application {
		seen[id] = true
	}
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	return out
}

// storeSnapshot is the persisted form of a Store.
type storeSnapshot struct {
	Interaction map[string]logSnapshot
	Application map[string]logSnapshot
}

type logSnapshot struct {
	NextSeq uint64
	Entries []Entry
}

// SaveAll persists both log families of every application to w.
func (s *Store) SaveAll(w io.Writer) error {
	snap := storeSnapshot{
		Interaction: make(map[string]logSnapshot),
		Application: make(map[string]logSnapshot),
	}
	s.mu.Lock()
	interaction := make(map[string]*Log, len(s.interaction))
	application := make(map[string]*Log, len(s.application))
	for id, l := range s.interaction {
		interaction[id] = l
	}
	for id, l := range s.application {
		application[id] = l
	}
	s.mu.Unlock()
	for id, l := range interaction {
		l.mu.RLock()
		snap.Interaction[id] = logSnapshot{NextSeq: l.nextSeq, Entries: append([]Entry(nil), l.entries...)}
		l.mu.RUnlock()
	}
	for id, l := range application {
		l.mu.RLock()
		snap.Application[id] = logSnapshot{NextSeq: l.nextSeq, Entries: append([]Entry(nil), l.entries...)}
		l.mu.RUnlock()
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("archive: save store: %w", err)
	}
	return nil
}

// LoadAll replaces the store's contents from r (written by SaveAll).
func (s *Store) LoadAll(r io.Reader) error {
	var snap storeSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("archive: load store: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.interaction = make(map[string]*Log, len(snap.Interaction))
	s.application = make(map[string]*Log, len(snap.Application))
	for id, ls := range snap.Interaction {
		l := &Log{nextSeq: ls.NextSeq, entries: ls.Entries}
		l.bind(s.journal, storage.FamilyInteraction, id)
		s.interaction[id] = l
	}
	for id, ls := range snap.Application {
		l := &Log{nextSeq: ls.NextSeq, entries: ls.Entries}
		l.bind(s.journal, storage.FamilyApplication, id)
		s.application[id] = l
	}
	return nil
}
