package archive

import (
	"bytes"
	"sync"
	"testing"

	"discover/internal/wire"
)

func cmd(client, op string) *wire.Message { return wire.NewCommand("app", client, op) }

func TestLogAppendAndSince(t *testing.T) {
	l := NewLog()
	for i := 0; i < 5; i++ {
		e := l.Append("c1", cmd("c1", "op"))
		if e.Seq != uint64(i+1) {
			t.Errorf("seq = %d, want %d", e.Seq, i+1)
		}
	}
	if l.Len() != 5 || l.LastSeq() != 5 {
		t.Errorf("Len=%d LastSeq=%d", l.Len(), l.LastSeq())
	}
	all := l.Since(0)
	if len(all) != 5 || all[0].Seq != 1 {
		t.Errorf("Since(0) = %d entries", len(all))
	}
	tail := l.Since(3)
	if len(tail) != 2 || tail[0].Seq != 4 {
		t.Errorf("Since(3) = %v", tail)
	}
	if got := l.Since(99); len(got) != 0 {
		t.Errorf("Since(99) = %v", got)
	}
}

func TestLogByClient(t *testing.T) {
	l := NewLog()
	l.Append("c1", cmd("c1", "a"))
	l.Append("c2", cmd("c2", "b"))
	l.Append("c1", cmd("c1", "c"))
	l.Append("", wire.NewUpdate("app", 1)) // application-origin
	got := l.ByClient("c1")
	if len(got) != 2 || got[0].Msg.Op != "a" || got[1].Msg.Op != "c" {
		t.Errorf("ByClient(c1) = %v", got)
	}
	if len(l.ByClient("ghost")) != 0 {
		t.Error("ByClient(ghost) nonempty")
	}
}

func TestLogSaveLoad(t *testing.T) {
	l := NewLog()
	l.Append("c1", cmd("c1", "set_param"))
	l.Append("c2", wire.NewResponse(cmd("c2", "status"), "ok"))

	var buf bytes.Buffer
	if err := l.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewLog()
	if err := restored.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 2 || restored.LastSeq() != 2 {
		t.Errorf("restored Len=%d LastSeq=%d", restored.Len(), restored.LastSeq())
	}
	a, b := l.Since(0), restored.Since(0)
	for i := range a {
		if !a[i].Msg.Equal(b[i].Msg) || a[i].Client != b[i].Client {
			t.Errorf("entry %d differs after reload", i)
		}
	}
	if err := restored.Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("Load of junk succeeded")
	}
}

// Replay property: replaying the interaction log against a fresh consumer
// yields the same op sequence that was recorded.
func TestReplayReproducesSequence(t *testing.T) {
	l := NewLog()
	ops := []string{"get_param", "set_param", "status", "set_param", "checkpoint"}
	for _, op := range ops {
		l.Append("c1", cmd("c1", op))
	}
	var replayed []string
	for _, e := range l.Since(0) {
		replayed = append(replayed, e.Msg.Op)
	}
	if len(replayed) != len(ops) {
		t.Fatalf("replayed %d, want %d", len(replayed), len(ops))
	}
	for i := range ops {
		if replayed[i] != ops[i] {
			t.Errorf("replay[%d] = %q, want %q", i, replayed[i], ops[i])
		}
	}
}

func TestStoreSeparatesLogFamilies(t *testing.T) {
	s := NewStore()
	il := s.InteractionLog("app#1")
	al := s.ApplicationLog("app#1")
	if il == al {
		t.Fatal("interaction and application logs aliased")
	}
	if s.InteractionLog("app#1") != il {
		t.Error("InteractionLog not stable")
	}
	il.Append("c", cmd("c", "x"))
	al.Append("", wire.NewUpdate("app#1", 1))
	if il.Len() != 1 || al.Len() != 1 {
		t.Error("appends crossed families")
	}
	if s.InteractionLog("app#2").Len() != 0 {
		t.Error("logs shared across apps")
	}
	s.Drop("app#1")
	if s.InteractionLog("app#1").Len() != 0 {
		t.Error("Drop did not clear logs")
	}
}

func TestStoreSaveLoadAll(t *testing.T) {
	s := NewStore()
	s.InteractionLog("app#1").Append("c1", cmd("c1", "set_param"))
	s.InteractionLog("app#1").Append("c2", cmd("c2", "status"))
	s.ApplicationLog("app#1").Append("", wire.NewUpdate("app#1", 1))
	s.ApplicationLog("app#2").Append("", wire.NewUpdate("app#2", 9))

	var buf bytes.Buffer
	if err := s.SaveAll(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewStore()
	if err := restored.LoadAll(&buf); err != nil {
		t.Fatal(err)
	}
	if got := restored.InteractionLog("app#1").Len(); got != 2 {
		t.Errorf("interaction entries = %d", got)
	}
	if got := restored.ApplicationLog("app#2").Len(); got != 1 {
		t.Errorf("app#2 entries = %d", got)
	}
	// Sequence numbers continue after reload.
	e := restored.InteractionLog("app#1").Append("c3", cmd("c3", "resume"))
	if e.Seq != 3 {
		t.Errorf("seq after reload = %d, want 3", e.Seq)
	}
	apps := restored.Apps()
	if len(apps) != 2 {
		t.Errorf("Apps = %v", apps)
	}
	if err := restored.LoadAll(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("LoadAll of junk succeeded")
	}
}

// Partition property: Since(0) == Since-prefix(k) ++ Since(seq of k-th).
func TestSincePartitionProperty(t *testing.T) {
	l := NewLog()
	for i := 0; i < 50; i++ {
		l.Append("c", cmd("c", "op"))
	}
	all := l.Since(0)
	for k := 0; k <= len(all); k++ {
		var pivot uint64
		if k > 0 {
			pivot = all[k-1].Seq
		}
		tail := l.Since(pivot)
		if len(tail) != len(all)-k {
			t.Fatalf("Since(%d) = %d entries, want %d", pivot, len(tail), len(all)-k)
		}
		for i, e := range tail {
			if e.Seq != all[k+i].Seq {
				t.Fatalf("partition mismatch at k=%d i=%d", k, i)
			}
		}
	}
}

func TestLogConcurrentAppend(t *testing.T) {
	l := NewLog()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Append("c", cmd("c", "op"))
			}
		}()
	}
	wg.Wait()
	if l.Len() != 800 || l.LastSeq() != 800 {
		t.Errorf("Len=%d LastSeq=%d, want 800", l.Len(), l.LastSeq())
	}
	// Sequence numbers must be strictly increasing with no duplicates.
	prev := uint64(0)
	for _, e := range l.Since(0) {
		if e.Seq <= prev {
			t.Fatalf("seq %d after %d", e.Seq, prev)
		}
		prev = e.Seq
	}
}
