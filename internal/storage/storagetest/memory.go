// Package storagetest provides an in-memory storage.Backend for tests.
// Only _test.go files import it.
package storagetest

import (
	"sync"

	"discover/internal/storage"
)

// Memory is the in-memory storage.Backend: the same WAL/snapshot
// semantics as the file backend with no disk underneath. Its point is
// that the value outlives the *server*, not the process —
// kill-and-recover tests build a second server over the same Memory
// instance and exercise the exact recovery path the file backend uses,
// without filesystem time.
type Memory struct {
	mu       sync.Mutex
	records  []storage.Record
	lastSeq  uint64
	snap     []byte
	snapSeq  uint64
	meta     map[string][]byte
	clean    bool // marker "on disk"
	wasClean bool // marker state observed at the last open

	appends       uint64
	appendedBytes uint64
	snapshots     uint64
}

// NewMemory returns an empty in-memory backend.
func NewMemory() *Memory { return &Memory{meta: make(map[string][]byte)} }

// Reopen simulates a process restart over the same stored state: it
// consumes the clean marker (like the file backend's open) and resets
// the per-open counters. The record log, snapshot, and meta survive.
func (m *Memory) Reopen() *Memory {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.wasClean = m.clean
	m.clean = false
	m.appends, m.appendedBytes, m.snapshots = 0, 0, 0
	return m
}

// Append implements Backend.
func (m *Memory) Append(kind string, data []byte) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lastSeq++
	cp := append([]byte(nil), data...)
	m.records = append(m.records, storage.Record{Seq: m.lastSeq, Kind: kind, Data: cp})
	m.appends++
	m.appendedBytes += uint64(len(cp))
	m.clean = false // any write after a clean mark dirties the log again
	return m.lastSeq, nil
}

// Replay implements Backend.
func (m *Memory) Replay(afterSeq uint64, fn func(storage.Record) error) error {
	m.mu.Lock()
	recs := make([]storage.Record, 0, len(m.records))
	for _, r := range m.records {
		if r.Seq > afterSeq {
			recs = append(recs, r)
		}
	}
	m.mu.Unlock()
	for _, r := range recs {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// LastSeq implements Backend.
func (m *Memory) LastSeq() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastSeq
}

// SaveSnapshot implements Backend: records covered by the snapshot are
// compacted away.
func (m *Memory) SaveSnapshot(state []byte, seq uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.snap = append([]byte(nil), state...)
	m.snapSeq = seq
	m.snapshots++
	keep := m.records[:0]
	for _, r := range m.records {
		if r.Seq > seq {
			keep = append(keep, r)
		}
	}
	m.records = append([]storage.Record(nil), keep...)
	return nil
}

// LoadSnapshot implements Backend.
func (m *Memory) LoadSnapshot() ([]byte, uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.snap == nil {
		return nil, 0, nil
	}
	return append([]byte(nil), m.snap...), m.snapSeq, nil
}

// SetMeta implements Backend.
func (m *Memory) SetMeta(key string, value []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.meta[key] = append([]byte(nil), value...)
	return nil
}

// GetMeta implements Backend.
func (m *Memory) GetMeta(key string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.meta[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Sync implements Backend (no-op).
func (m *Memory) Sync() error { return nil }

// MarkClean implements Backend.
func (m *Memory) MarkClean() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clean = true
	return nil
}

// WasClean implements Backend.
func (m *Memory) WasClean() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.wasClean
}

// Stats implements Backend.
func (m *Memory) Stats() storage.Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return storage.Stats{
		Backend:       "memory",
		Appends:       m.appends,
		AppendedBytes: m.appendedBytes,
		LastSeq:       m.lastSeq,
		Snapshots:     m.snapshots,
		SnapshotSeq:   m.snapSeq,
		Segments:      1,
		CleanOpen:     m.wasClean,
	}
}

// Close implements Backend (no-op; state survives for Reopen).
func (m *Memory) Close() error { return nil }
