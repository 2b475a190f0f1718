package session

import (
	"sync"
	"testing"
	"time"

	"discover/internal/auth"
	"discover/internal/wire"
)

func qmsg(i int) *wire.Message {
	return &wire.Message{Kind: wire.KindUpdate, Seq: uint64(i), Op: "tick"}
}

func TestQueueSequencesAreMonotonic(t *testing.T) {
	q := NewQueue(8, 0)
	for i := 1; i <= 5; i++ {
		q.Push(qmsg(i))
	}
	ents, overflow := q.DrainEntries(0)
	if overflow != 0 {
		t.Fatalf("unexpected overflow %d", overflow)
	}
	for i, e := range ents {
		if e.Seq != uint64(i+1) {
			t.Fatalf("entry %d has seq %d", i, e.Seq)
		}
	}
	if q.LastSeq() != 5 {
		t.Fatalf("LastSeq = %d, want 5", q.LastSeq())
	}
	// Sequences keep counting across drains: the resume token is global
	// to the session, not to one connection.
	q.Push(qmsg(6))
	ents, _ = q.DrainEntries(0)
	if len(ents) != 1 || ents[0].Seq != 6 {
		t.Fatalf("post-drain push got %+v", ents)
	}
}

func TestQueueResumeSplicesFromRing(t *testing.T) {
	q := NewQueue(4, 16)
	for i := 1; i <= 6; i++ {
		q.Push(qmsg(i))
	}
	// Deliver everything, as a stream would, then reconnect from seq 2.
	q.DrainEntries(0)
	ents, lost := q.Resume(2)
	if lost != 0 {
		t.Fatalf("lost %d, want 0 (ring holds all 6)", lost)
	}
	if len(ents) != 4 || ents[0].Seq != 3 || ents[3].Seq != 6 {
		t.Fatalf("splice = %+v, want seqs 3..6", ents)
	}
	// A caught-up token splices nothing.
	if ents, lost := q.Resume(6); len(ents) != 0 || lost != 0 {
		t.Fatalf("caught-up resume returned %d entries, %d lost", len(ents), lost)
	}
	// A token from the future is treated as caught up, not replayed.
	if ents, lost := q.Resume(99); len(ents) != 0 || lost != 0 {
		t.Fatalf("future-token resume returned %d entries, %d lost", len(ents), lost)
	}
}

func TestQueueResumeReportsRotatedRing(t *testing.T) {
	q := NewQueue(4, 4) // ring holds only the last 4 pushes
	for i := 1; i <= 10; i++ {
		q.Push(qmsg(i))
	}
	ents, lost := q.Resume(2)
	// Ring retains 7..10; the gap 3..6 is gone for good.
	if lost != 4 {
		t.Fatalf("lost = %d, want 4", lost)
	}
	if len(ents) != 4 || ents[0].Seq != 7 || ents[3].Seq != 10 {
		t.Fatalf("splice = %+v, want seqs 7..10", ents)
	}
	// Resume absorbed the undelivered window: no duplicates on the next
	// drain, and the pending overflow count was superseded by the exact
	// loss report.
	if ents, overflow := q.DrainEntries(0); ents != nil || overflow != 0 {
		t.Fatalf("post-resume drain returned %d entries, overflow %d", len(ents), overflow)
	}
}

func TestQueueResumeBeforeAnyPush(t *testing.T) {
	q := NewQueue(4, 8)
	if ents, lost := q.Resume(0); len(ents) != 0 || lost != 0 {
		t.Fatalf("empty-queue resume returned %d entries, %d lost", len(ents), lost)
	}
}

func TestQueueRingNeverSmallerThanBuffer(t *testing.T) {
	// replay < capacity would let a resume lose entries that are still
	// sitting undelivered in the buffer; the constructor widens the ring.
	q := NewQueue(8, 2)
	for i := 1; i <= 8; i++ {
		q.Push(qmsg(i))
	}
	ents, lost := q.Resume(0)
	if lost != 0 || len(ents) != 8 {
		t.Fatalf("resume over undelivered window: %d entries, %d lost", len(ents), lost)
	}
}

// TestQueueOverflowResumeRace is the slow-streaming-client scenario
// end-to-end at the queue layer, under the race detector: a producer
// pushes flat out while the consumer stalls, overflows, learns the drop
// count, reconnects with its resume token, and splices the gap from the
// replay ring — with every message either delivered exactly once or
// counted lost, and the producer never blocking on the consumer.
func TestQueueOverflowResumeRace(t *testing.T) {
	const total = 5000
	q := NewQueue(16, 64)

	producerDone := make(chan struct{})
	go func() {
		defer close(producerDone)
		for i := 1; i <= total; i++ {
			q.Push(qmsg(i))
		}
	}()

	seen := make(map[uint64]bool)
	var lastSeq uint64
	var lost uint64
	record := func(ents []Entry) {
		for _, e := range ents {
			if e.Seq <= lastSeq {
				t.Errorf("delivery went backwards: %d after %d", e.Seq, lastSeq)
			}
			if seen[e.Seq] {
				t.Errorf("seq %d delivered twice", e.Seq)
			}
			seen[e.Seq] = true
			lastSeq = e.Seq
		}
	}

	// Consume slowly (tiny batches) so the producer laps us.
	for q.LastSeq() < total/2 {
		ents, overflow := q.DrainEntries(4)
		record(ents)
		if overflow > 0 {
			// The overflow count is the drop tally a real client reads
			// from the buffer-overflow event: messages shed below the
			// token the drain just advanced past. The resume gap below
			// only covers ring rotation above the token, so the two
			// never overlap and both must be counted.
			lost += overflow
			// The stream handler sheds the connection here; the client
			// reconnects with its last-seen token and resumes.
			ents, gap := q.Resume(lastSeq)
			lost += gap
			lastSeq += gap
			record(ents)
		}
	}

	// Consumer fully stalls. If Push blocked on a slow consumer this
	// would deadlock and the race-run test would time out.
	<-producerDone

	// Final reconnect drains whatever the ring still holds.
	ents, gap := q.Resume(lastSeq)
	lost += gap
	record(ents)

	if got := uint64(len(seen)) + lost; got != total {
		t.Fatalf("delivered %d + lost %d = %d, want %d", len(seen), lost, got, total)
	}
	if lost == 0 {
		t.Fatalf("consumer never overflowed; the race exercised nothing")
	}
}

// TestQueueOverflowEventThenResume pins the client-visible protocol: the
// drain reports the drop count the portal routes render as the
// buffer-overflow event, and a subsequent stream resume reports the
// rotated-ring loss exactly rather than re-delivering stale state.
func TestQueueOverflowEventThenResume(t *testing.T) {
	m := NewManager("srv", WithCapacity(3), WithReplay(3))
	s := m.Create("alice", auth.Token{User: "alice"})
	q := s.Buffer
	for i := 1; i <= 10; i++ {
		q.Push(qmsg(i))
	}
	out, overflow := q.DrainEntries(0)
	if len(out) != 3 {
		t.Fatalf("drain returned %d entries, want 3", len(out))
	}
	if overflow != 7 {
		t.Fatalf("overflow = %d, want 7", overflow)
	}
	// The client reconnects as a stream from the last seq it processed
	// before the gap (say 2); ring (8..10) has rotated past it.
	ents, lost := q.Resume(2)
	if lost != 5 {
		t.Fatalf("lost = %d, want 5 (seqs 3..7)", lost)
	}
	if len(ents) != 3 || ents[0].Seq != 8 {
		t.Fatalf("splice = %+v, want seqs 8..10", ents)
	}
}

func TestQueueDrainEntriesWaitCancel(t *testing.T) {
	q := NewQueue(4, 0)
	cancel := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if ents, _ := q.DrainEntriesWait(0, time.Minute, cancel); ents != nil {
			t.Errorf("cancelled wait returned entries %+v", ents)
		}
	}()
	close(cancel)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("DrainEntriesWait ignored cancellation")
	}

	// And the wait still returns promptly when a message arrives.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ents, _ := q.DrainEntriesWait(0, time.Minute, nil)
		if len(ents) != 1 {
			t.Errorf("wait returned %d entries, want 1", len(ents))
		}
	}()
	time.Sleep(10 * time.Millisecond)
	q.Push(qmsg(1))
	wg.Wait()
}
