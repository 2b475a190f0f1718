package session

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"discover/internal/auth"
	"discover/internal/wire"
)

func msg(seq uint64) *wire.Message { return wire.NewUpdate("app", seq) }

// seqs returns the message sequence numbers of drained entries.
func seqs(ents []Entry) []uint64 {
	var out []uint64
	for _, e := range ents {
		out = append(out, e.Msg.Seq)
	}
	return out
}

func TestFifoOrderAndDrain(t *testing.T) {
	f := NewQueue(10, 0)
	for i := uint64(1); i <= 5; i++ {
		f.Push(msg(i))
	}
	if f.Len() != 5 {
		t.Fatalf("Len = %d", f.Len())
	}
	out, overflow := f.DrainEntries(3)
	if got := seqs(out); len(got) != 3 || got[0] != 1 || got[2] != 3 || overflow != 0 {
		t.Errorf("DrainEntries(3) = %v, overflow %d", got, overflow)
	}
	out, _ = f.DrainEntries(0)
	if got := seqs(out); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Errorf("DrainEntries rest = %v", got)
	}
	if out, _ := f.DrainEntries(0); out != nil {
		t.Errorf("DrainEntries empty = %v", out)
	}
}

func TestFifoOverflowDropsOldest(t *testing.T) {
	f := NewQueue(3, 0)
	for i := uint64(1); i <= 5; i++ {
		f.Push(msg(i))
	}
	out, overflow := f.DrainEntries(0)
	if got := seqs(out); len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Errorf("after overflow = %v", got)
	}
	if overflow != 2 {
		t.Errorf("drain reported overflow %d, want 2", overflow)
	}
	dropped, hw := f.Stats()
	if dropped != 2 {
		t.Errorf("dropped = %d, want 2", dropped)
	}
	if hw != 3 {
		t.Errorf("high water = %d, want 3", hw)
	}
}

func TestFifoNeverReorders(t *testing.T) {
	f := NewQueue(64, 0)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); i <= 1000; i++ {
			f.Push(msg(i))
		}
	}()
	var last uint64
	count := 0
	deadline := time.Now().Add(5 * time.Second)
	for count < 1000 && time.Now().Before(deadline) {
		ents, _ := f.DrainEntriesWait(16, 10*time.Millisecond, nil)
		for _, seq := range seqs(ents) {
			if seq <= last {
				// Drops are allowed (capacity 64 vs burst) but order must hold.
				t.Fatalf("reordered: %d after %d", seq, last)
			}
			last = seq
			count++
		}
		dropped, _ := f.Stats()
		if int(dropped)+count >= 1000 && f.Len() == 0 {
			break
		}
	}
	wg.Wait()
	dropped, _ := f.Stats()
	if count+int(dropped) != 1000 {
		t.Errorf("received %d + dropped %d != 1000", count, dropped)
	}
}

// TestFifoDrainWait: the long poll's wait times out empty on an idle
// queue, and an arrival wakes it early.
func TestFifoDrainWait(t *testing.T) {
	f := NewQueue(4, 0)
	start := time.Now()
	if out, _ := f.DrainEntriesWait(0, 30*time.Millisecond, nil); out != nil {
		t.Errorf("DrainEntriesWait on empty = %v", out)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Errorf("DrainEntriesWait returned after %v, should have waited", d)
	}

	go func() {
		time.Sleep(20 * time.Millisecond)
		f.Push(msg(7))
	}()
	out, _ := f.DrainEntriesWait(0, time.Second, nil)
	if got := seqs(out); len(got) != 1 || got[0] != 7 {
		t.Errorf("DrainEntriesWait woke with %v", got)
	}
}

func TestManagerCreateGetRemove(t *testing.T) {
	m := NewManager("rutgers")
	s1 := m.Create("alice", auth.Token{User: "alice"})
	s2 := m.Create("bob", auth.Token{User: "bob"})
	if s1.ClientID == s2.ClientID {
		t.Fatal("duplicate client ids")
	}
	if s1.ClientID != "rutgers/client-1" {
		t.Errorf("client id = %q", s1.ClientID)
	}
	got, ok := m.Get(s1.ClientID)
	if !ok || got.User != "alice" {
		t.Errorf("Get = %v, %v", got, ok)
	}
	if _, ok := m.Get("rutgers/client-99"); ok {
		t.Error("Get of unknown session succeeded")
	}
	if n := len(m.List()); n != 2 {
		t.Errorf("List len = %d", n)
	}
	users := m.Users()
	if len(users) != 2 {
		t.Errorf("Users = %v", users)
	}
	m.Remove(s1.ClientID)
	if _, ok := m.Get(s1.ClientID); ok {
		t.Error("removed session still present")
	}
}

func TestSessionConnectDisconnect(t *testing.T) {
	m := NewManager("srv")
	s := m.Create("alice", auth.Token{})
	if s.App() != "" {
		t.Error("fresh session has an app")
	}
	cap := auth.Capability{User: "alice", App: "app#1", Priv: auth.Steer}
	s.Connect("app#1", cap)
	if s.App() != "app#1" || s.Capability().Priv != auth.Steer {
		t.Errorf("after Connect: app=%q cap=%+v", s.App(), s.Capability())
	}
	s.Disconnect()
	if s.App() != "" || s.Capability().Priv != auth.None {
		t.Error("Disconnect did not clear state")
	}
}

func TestExpireIdle(t *testing.T) {
	now := time.Now()
	clock := &now
	m := NewManager("srv", WithClock(func() time.Time { return *clock }))
	s1 := m.Create("alice", auth.Token{})
	now = now.Add(10 * time.Minute)
	s2 := m.Create("bob", auth.Token{})
	_ = s2

	removed := m.ExpireIdle(5 * time.Minute)
	if len(removed) != 1 || removed[0] != s1.ClientID {
		t.Errorf("ExpireIdle removed %v", removed)
	}
	if _, ok := m.Peek(s1.ClientID); ok {
		t.Error("expired session still present")
	}
	// Get refreshes activity.
	now = now.Add(4 * time.Minute)
	m.Get(s2.ClientID)
	now = now.Add(2 * time.Minute)
	if removed := m.ExpireIdle(5 * time.Minute); len(removed) != 0 {
		t.Errorf("refreshed session expired: %v", removed)
	}
}

func TestManagerWithCapacity(t *testing.T) {
	m := NewManager("srv", WithCapacity(2))
	s := m.Create("alice", auth.Token{})
	for i := uint64(1); i <= 4; i++ {
		s.Buffer.Push(msg(i))
	}
	// The drain reports the 2 shed messages beside the 2 survivors.
	out, overflow := s.Buffer.DrainEntries(0)
	if overflow != 2 {
		t.Fatalf("overflow = %d, want 2", overflow)
	}
	if got := seqs(out); len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Errorf("capacity option not applied: %v", got)
	}
}

func TestManyConcurrentSessions(t *testing.T) {
	m := NewManager("srv")
	var wg sync.WaitGroup
	ids := make(chan string, 100)
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := m.Create(fmt.Sprintf("user-%d", i%10), auth.Token{})
			ids <- s.ClientID
		}(i)
	}
	wg.Wait()
	close(ids)
	seen := make(map[string]bool)
	for id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %q under concurrency", id)
		}
		seen[id] = true
	}
	if len(m.Users()) != 10 {
		t.Errorf("Users() = %d, want 10", len(m.Users()))
	}
}
