package storage_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"discover/internal/storage"
	"discover/internal/storage/storagetest"
)

// openBackends builds one of each backend flavor plus a reopen function
// that simulates a process restart over the same stored state.
func openBackends(t *testing.T) map[string]struct {
	b      storage.Backend
	reopen func() storage.Backend
} {
	t.Helper()
	mem := storagetest.NewMemory()
	dir := t.TempDir()
	fb, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatalf("storage.OpenFile: %v", err)
	}
	t.Cleanup(func() { fb.Close() })
	return map[string]struct {
		b      storage.Backend
		reopen func() storage.Backend
	}{
		"memory": {b: mem, reopen: func() storage.Backend { return mem.Reopen() }},
		"file": {b: fb, reopen: func() storage.Backend {
			fb.Close()
			nb, err := storage.OpenFile(dir)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			t.Cleanup(func() { nb.Close() })
			return nb
		}},
	}
}

func collect(t *testing.T, b storage.Backend, after uint64) []storage.Record {
	t.Helper()
	var out []storage.Record
	if err := b.Replay(after, func(r storage.Record) error { out = append(out, r); return nil }); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func TestBackendAppendReplay(t *testing.T) {
	for name, bk := range openBackends(t) {
		t.Run(name, func(t *testing.T) {
			b := bk.b
			for i := 1; i <= 5; i++ {
				seq, err := b.Append("k", []byte(fmt.Sprintf("v%d", i)))
				if err != nil {
					t.Fatalf("Append: %v", err)
				}
				if seq != uint64(i) {
					t.Fatalf("seq = %d, want %d", seq, i)
				}
			}
			if got := b.LastSeq(); got != 5 {
				t.Fatalf("LastSeq = %d, want 5", got)
			}
			recs := collect(t, b, 2)
			if len(recs) != 3 || recs[0].Seq != 3 || string(recs[2].Data) != "v5" {
				t.Fatalf("Replay(2) = %+v", recs)
			}

			// Records survive a restart.
			nb := bk.reopen()
			if got := nb.LastSeq(); got != 5 {
				t.Fatalf("after reopen LastSeq = %d, want 5", got)
			}
			if recs := collect(t, nb, 0); len(recs) != 5 || recs[4].Kind != "k" {
				t.Fatalf("after reopen Replay = %+v", recs)
			}
		})
	}
}

func TestBackendSnapshotCompaction(t *testing.T) {
	for name, bk := range openBackends(t) {
		t.Run(name, func(t *testing.T) {
			b := bk.b
			for i := 0; i < 10; i++ {
				b.Append("k", []byte{byte(i)})
			}
			if err := b.SaveSnapshot([]byte("state@7"), 7); err != nil {
				t.Fatalf("SaveSnapshot: %v", err)
			}
			state, seq, err := b.LoadSnapshot()
			if err != nil || string(state) != "state@7" || seq != 7 {
				t.Fatalf("LoadSnapshot = %q, %d, %v", state, seq, err)
			}
			// Compaction keeps records past the snapshot.
			recs := collect(t, b, seq)
			if len(recs) != 3 || recs[0].Seq != 8 {
				t.Fatalf("post-snapshot records = %+v", recs)
			}
			// Appends continue the sequence.
			if s, _ := b.Append("k", nil); s != 11 {
				t.Fatalf("append after snapshot seq = %d, want 11", s)
			}
			nb := bk.reopen()
			state, seq, err = nb.LoadSnapshot()
			if err != nil || string(state) != "state@7" || seq != 7 {
				t.Fatalf("reopened snapshot = %q, %d, %v", state, seq, err)
			}
			if nb.LastSeq() != 11 {
				t.Fatalf("reopened LastSeq = %d, want 11", nb.LastSeq())
			}
		})
	}
}

func TestFileCompactionDropsSegments(t *testing.T) {
	dir := t.TempDir()
	fb, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatalf("storage.OpenFile: %v", err)
	}
	defer fb.Close()
	for i := 0; i < 20; i++ {
		fb.Append("k", bytes.Repeat([]byte{1}, 100))
	}
	fb.SaveSnapshot([]byte("s1"), 20)
	for i := 0; i < 10; i++ {
		fb.Append("k", nil)
	}
	fb.SaveSnapshot([]byte("s2"), 30)
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("segments after two compactions = %v, want exactly the active one", segs)
	}
	if st := fb.Stats(); st.Snapshots != 2 || st.SnapshotSeq != 30 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBackendMeta(t *testing.T) {
	for name, bk := range openBackends(t) {
		t.Run(name, func(t *testing.T) {
			b := bk.b
			if _, ok := b.GetMeta("authkey"); ok {
				t.Fatal("meta present before set")
			}
			if err := b.SetMeta("authkey", []byte{1, 2, 3}); err != nil {
				t.Fatalf("SetMeta: %v", err)
			}
			nb := bk.reopen()
			v, ok := nb.GetMeta("authkey")
			if !ok || !bytes.Equal(v, []byte{1, 2, 3}) {
				t.Fatalf("GetMeta after reopen = %v, %v", v, ok)
			}
		})
	}
}

func TestBackendCleanMarker(t *testing.T) {
	for name, bk := range openBackends(t) {
		t.Run(name, func(t *testing.T) {
			b := bk.b
			b.Append("k", nil)
			if b.WasClean() {
				t.Fatal("fresh backend reports clean open")
			}
			// Crash-like reopen: no marker.
			b = bk.reopen()
			if b.WasClean() {
				t.Fatal("unmarked reopen reports clean")
			}
			if err := b.MarkClean(); err != nil {
				t.Fatalf("MarkClean: %v", err)
			}
			b = bk.reopen()
			if !b.WasClean() {
				t.Fatal("marked reopen not reported clean")
			}
			// The marker is consumed and a write dirties the log again.
			b.Append("k", nil)
			b.MarkClean()
			b.Append("k", nil) // dirty after the mark
			b = bk.reopen()
			if b.WasClean() {
				t.Fatal("write after MarkClean must clear the marker")
			}
		})
	}
}

func TestFileTornTailTruncates(t *testing.T) {
	dir := t.TempDir()
	fb, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatalf("storage.OpenFile: %v", err)
	}
	for i := 0; i < 5; i++ {
		fb.Append("k", []byte("payload"))
	}
	fb.Sync()
	fb.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("segments = %v", segs)
	}
	info, _ := os.Stat(segs[0])
	// Chop three bytes mid-record: the last record is torn.
	if err := os.Truncate(segs[0], info.Size()-3); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	nb, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatalf("open with torn tail must boot, got %v", err)
	}
	defer nb.Close()
	if got := nb.LastSeq(); got != 4 {
		t.Fatalf("LastSeq after torn tail = %d, want 4", got)
	}
	if st := nb.Stats(); st.TruncatedBytes == 0 {
		t.Fatal("truncated bytes not reported")
	}
	// The log accepts new appends where the truncation left off.
	if seq, err := nb.Append("k", nil); err != nil || seq != 5 {
		t.Fatalf("append after truncation = %d, %v", seq, err)
	}
	if recs := collect(t, nb, 0); len(recs) != 5 {
		t.Fatalf("replay after truncation+append = %d records, want 5", len(recs))
	}
}

func TestJournalRecordsAndDecodes(t *testing.T) {
	mem := storagetest.NewMemory()
	j := storage.NewJournal(mem, 0, nil)
	defer j.Close()
	j.Record(storage.KindLockGrant, storage.LockGrantEvent{App: "a#1", Owner: "c1"})
	recs := collect(t, mem, 0)
	if len(recs) != 1 || recs[0].Kind != storage.KindLockGrant {
		t.Fatalf("records = %+v", recs)
	}
	var ev storage.LockGrantEvent
	if err := storage.Decode(recs[0], &ev); err != nil || ev.App != "a#1" || ev.Owner != "c1" {
		t.Fatalf("decode = %+v, %v", ev, err)
	}
	if j.Failed() {
		t.Fatal("journal reports failed")
	}
}
