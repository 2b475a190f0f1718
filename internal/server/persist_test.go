package server

// Kill-and-recover tests over the in-memory storage backend: a server
// is built on a storagetest.Memory, crashed with CrashStop, and a second
// server is built over the same (reopened) backend — the process-level
// analogue of a domain restart from disk, without the filesystem.

import (
	"testing"
	"time"

	"discover/internal/session"
	"discover/internal/storage/storagetest"
	"discover/internal/wire"
)

// deployDurable is deploy with a Memory storage backend attached.
func deployDurable(t *testing.T, mem *storagetest.Memory) *testDeployment {
	t.Helper()
	return deploy(t, func(cfg *Config) { cfg.Storage = mem })
}

// restartFrom builds a fresh server of the same name over a reopened
// backend, simulating a restart of the crashed domain.
func restartFrom(t *testing.T, mem *storagetest.Memory) *Server {
	t.Helper()
	mem.Reopen()
	s2, err := New(Config{Name: "rutgers", Storage: mem, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(s2.Close)
	return s2
}

func TestPersistKillRecover(t *testing.T) {
	mem := storagetest.NewMemory()
	d := deployDurable(t, mem)
	sess := d.login(t, "alice")
	appID := d.connect(t, sess)

	if granted, _ := d.srv.Locks().TryAcquire(appID, sess.ClientID, time.Hour); !granted {
		t.Fatal("lock not granted")
	}
	d.srv.Archive().InteractionLog(appID).Append(sess.ClientID, wire.NewEvent("rutgers", "probe", "1"))
	recID := d.srv.Records().Table("notes").Insert("alice", map[string]string{"k": "v"}, nil)
	if err := d.srv.Records().Table("notes").GrantRead("alice", recID, "bob"); err != nil {
		t.Fatalf("grant: %v", err)
	}
	for i := 0; i < 5; i++ {
		sess.Buffer.Push(wire.NewEvent("rutgers", "tick", ""))
	}
	wantSeq := sess.Buffer.LastSeq()
	wantArch := d.srv.Archive().InteractionLog(appID).Since(0)

	d.srv.CrashStop()
	s2 := restartFrom(t, mem)

	got, ok := s2.Sessions().Peek(sess.ClientID)
	if !ok {
		t.Fatalf("session %s did not survive the restart", sess.ClientID)
	}
	if got.User != "alice" {
		t.Fatalf("recovered user = %q, want alice", got.User)
	}
	// The persisted HMAC key must make the pre-crash token verify again.
	if err := s2.Auth().VerifyToken(got.Token); err != nil {
		t.Fatalf("recovered token does not verify: %v", err)
	}
	if got.App() != appID {
		t.Fatalf("recovered app binding = %q, want %q", got.App(), appID)
	}
	// CrashStop itself journals a final push (the app-closed broadcast as
	// the daemon dies), so the recovered position is at least wantSeq.
	recoveredSeq := got.Buffer.LastSeq()
	if recoveredSeq < wantSeq {
		t.Fatalf("recovered queue seq = %d, want >= %d", recoveredSeq, wantSeq)
	}
	if holder, ok := s2.Locks().Holder(appID); !ok || holder != sess.ClientID {
		t.Fatalf("recovered lock holder = %q/%v, want %q", holder, ok, sess.ClientID)
	}
	gotArch := s2.Archive().InteractionLog(appID).Since(0)
	if len(gotArch) != len(wantArch) {
		t.Fatalf("recovered %d interaction entries, want %d", len(gotArch), len(wantArch))
	}
	for i := range wantArch {
		if gotArch[i].Seq != wantArch[i].Seq || gotArch[i].Msg.Op != wantArch[i].Msg.Op {
			t.Fatalf("interaction entry %d diverged: %+v vs %+v", i, gotArch[i], wantArch[i])
		}
	}
	rec, err := s2.Records().Table("notes").Get("bob", recID)
	if err != nil {
		t.Fatalf("recovered record read as bob (granted pre-crash): %v", err)
	}
	if rec.Owner != "alice" || rec.Fields["k"] != "v" {
		t.Fatalf("recovered record = %+v", rec)
	}

	// Group membership was re-armed: a control event reaches the
	// recovered queue, continuing the same sequence space.
	s2.HandleControlEvent(wire.NewEvent("rutgers", "post-recovery", ""))
	if got.Buffer.LastSeq() != recoveredSeq+1 {
		t.Fatalf("post-recovery push seq = %d, want %d", got.Buffer.LastSeq(), recoveredSeq+1)
	}

	st, ok := s2.StorageStats()
	if !ok {
		t.Fatal("StorageStats absent on a durable domain")
	}
	if st.Recovery.Clean {
		t.Fatal("crash recovery reported clean")
	}
	if st.Recovery.Sessions != 1 || st.Recovery.Locks != 1 {
		t.Fatalf("recovery stats = %+v", st.Recovery)
	}
}

func TestPersistCleanShutdownSkipsReplay(t *testing.T) {
	mem := storagetest.NewMemory()
	d := deployDurable(t, mem)
	sess := d.login(t, "alice")
	d.connect(t, sess)
	d.app.Close()
	d.srv.BeginDrain()
	d.srv.Close() // graceful: final snapshot + clean marker

	s2 := restartFrom(t, mem)
	st, _ := s2.StorageStats()
	if !st.Recovery.Clean {
		t.Fatal("graceful shutdown did not leave a clean marker")
	}
	if st.Recovery.Replayed != 0 {
		t.Fatalf("clean restart replayed %d WAL records, want 0", st.Recovery.Replayed)
	}
	if _, ok := s2.Sessions().Peek(sess.ClientID); !ok {
		t.Fatal("session lost across clean shutdown")
	}
}

func TestPersistWALSpliceBeyondRing(t *testing.T) {
	mem := storagetest.NewMemory()
	d := deploy(t, func(cfg *Config) {
		cfg.Storage = mem
		cfg.FifoCapacity = 4
	})
	sess := d.login(t, "alice")
	for i := 0; i < session.DefaultReplay+6; i++ {
		sess.Buffer.Push(wire.NewEvent("rutgers", "tick", ""))
	}
	// A resume token behind the replay ring: the ring holds the last
	// DefaultReplay pushes, so seqs 3..6 are gone from memory, but every
	// push is in the WAL.
	_, lost := sess.Buffer.Resume(2)
	if lost == 0 {
		t.Fatal("expected the ring to have rotated past the token")
	}
	ents := d.srv.walSplice(sess.ClientID, 2, lost)
	if uint64(len(ents)) != lost {
		t.Fatalf("WAL splice recovered %d of %d lost entries", len(ents), lost)
	}
	for i, e := range ents {
		if want := uint64(3 + i); e.Seq != want {
			t.Fatalf("spliced entry %d has seq %d, want %d", i, e.Seq, want)
		}
	}
}
