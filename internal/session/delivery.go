// The shared delivery queue: one bounded, resumable buffer per client
// with one drain API, DrainEntries and its blocking form
// DrainEntriesWait. Both portal routes use it: the long poll
// (/session/{id}/events) waits in DrainEntriesWait, and the streaming
// edge drains DrainEntries whenever Wakeup fires, which parks an idle
// stream on a channel instead of a per-client ticker.
// Push never blocks: a slow consumer overflows the bounded window and
// the producer keeps going, which is the backpressure contract the
// streaming edge relies on to shed stalled clients instead of stalling
// applications.
//
// Every message is stamped with a monotonic per-queue sequence number at
// Push. The sequence doubles as the SSE resume token (Last-Event-ID): a
// replay ring retains the last ringCap deliveries so a reconnecting
// client can splice the gap it missed, and when the ring has rotated
// past the token the loss is reported exactly (an "events-lost" event)
// rather than silently — and, when the domain runs on a durable
// backend, the streaming edge splices the remainder from the WAL before
// declaring anything lost (internal/server/stream.go).
package session

import (
	"sync"
	"time"

	"discover/internal/storage"
	"discover/internal/telemetry"
	"discover/internal/wire"
)

// DefaultReplay is the replay-ring length when WithReplay is not given:
// how many already-delivered messages a queue retains for resume
// splicing. The ring is allocated lazily on first push, so idle sessions
// pay nothing for it.
const DefaultReplay = 1024

// OverflowEvent is the Op of the synthetic event the portal routes emit
// ahead of a drain that reports dropped messages; its Text is the number
// of messages lost.
const OverflowEvent = "buffer-overflow"

// LostEvent is the Op of the synthetic event the streaming edge emits
// when a resume token falls behind the replay ring: the gap could not be
// spliced and its Text is the number of messages irrecoverably missed.
const LostEvent = "events-lost"

// fifoOverflowTotal counts messages dropped by bounded client FIFOs
// across the process (exported as discover_edge_fifo_overflow_total).
var fifoOverflowTotal = telemetry.GetCounter("discover_edge_fifo_overflow_total")

// Entry is one queued message together with its delivery metadata: the
// monotonic per-queue sequence number (the resume token) and the push
// time (for the delivery-lag histogram).
type Entry struct {
	Seq uint64
	At  time.Time
	Msg *wire.Message
}

// Queue is the bounded delivery FIFO for one client. Push never blocks;
// overflow drops the oldest undelivered entry, and the next drain
// reports how many were dropped so the portal routes can lead with a
// "buffer-overflow" event: a slow client learns about the gap instead of
// silently missing state. DrainEntries empties it, DrainEntriesWait
// adds the bounded wait of the long poll, Wakeup parks the streaming
// edge, and Resume splices missed entries for a reconnecting stream.
type Queue struct {
	mu         sync.Mutex
	buf        []Entry // undelivered window, bounded by capacity
	capacity   int
	seq        uint64 // last assigned sequence number; 0 = nothing pushed
	dropped    uint64
	highWater  int
	overflowed uint64 // drops since the last drain (pending event)

	// Replay ring: the last ringCap pushes, delivered or not, kept for
	// resume splicing. Allocated on first push; ringCap >= capacity so
	// the ring always covers the undelivered window.
	ring     []Entry
	ringCap  int
	ringHead int // index of the oldest retained entry
	ringLen  int

	// Durability: when journal is set, every push is recorded (under
	// q.mu, so the WAL sees one queue's pushes in sequence order).
	journal storage.Recorder
	client  string

	notify   chan struct{}
	waitHist *telemetry.Histogram
}

// NewQueue returns a delivery queue holding at most capacity undelivered
// messages (DefaultCapacity if <= 0) and retaining replay delivered
// messages for resume splicing (DefaultReplay if <= 0). The ring is
// never smaller than the buffer, so anything still undelivered is always
// resumable.
func NewQueue(capacity, replay int) *Queue {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if replay <= 0 {
		replay = DefaultReplay
	}
	if replay < capacity {
		replay = capacity
	}
	return &Queue{
		capacity: capacity,
		ringCap:  replay,
		notify:   make(chan struct{}, 1),
		waitHist: telemetry.GetHistogram("discover_fifo_wait_seconds"),
	}
}

// journalTo attaches a WAL recorder; client names this queue's session
// in the journaled events. A nil recorder leaves journaling off.
func (q *Queue) journalTo(rec storage.Recorder, client string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.journal = rec
	q.client = client
}

// Push stamps m with the next sequence number and appends it, dropping
// the oldest undelivered entry if the window is full. It never blocks.
func (q *Queue) Push(m *wire.Message) {
	q.mu.Lock()
	q.seq++
	e := Entry{Seq: q.seq, At: time.Now(), Msg: m}
	if len(q.buf) >= q.capacity {
		copy(q.buf, q.buf[1:])
		q.buf = q.buf[:len(q.buf)-1]
		q.dropped++
		q.overflowed++
		fifoOverflowTotal.Inc()
	}
	q.buf = append(q.buf, e)
	if len(q.buf) > q.highWater {
		q.highWater = len(q.buf)
	}
	q.ringPut(e)
	if q.journal != nil {
		q.journal.Record(storage.KindQueuePush, storage.QueuePushEvent{
			ClientID: q.client, Seq: e.Seq, At: e.At, Msg: m,
		})
	}
	q.mu.Unlock()
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// ringPut retains e in the replay ring, evicting the oldest entry once
// full. Caller holds q.mu.
func (q *Queue) ringPut(e Entry) {
	if q.ring == nil {
		q.ring = make([]Entry, q.ringCap)
	}
	if q.ringLen < q.ringCap {
		q.ring[(q.ringHead+q.ringLen)%q.ringCap] = e
		q.ringLen++
		return
	}
	q.ring[q.ringHead] = e
	q.ringHead = (q.ringHead + 1) % q.ringCap
}

// DrainEntries removes and returns up to max undelivered entries (all if
// max <= 0) plus the number of messages dropped since the last drain.
// It returns nothing while the queue is empty, leaving any pending
// overflow count for the drain that has messages to carry it.
func (q *Queue) DrainEntries(max int) ([]Entry, uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := len(q.buf)
	if max > 0 && max < n {
		n = max
	}
	if n == 0 {
		return nil, 0
	}
	out := make([]Entry, n)
	copy(out, q.buf[:n])
	now := time.Now()
	for _, e := range out {
		q.waitHist.Observe(now.Sub(e.At))
	}
	q.buf = q.buf[:copy(q.buf, q.buf[n:])]
	overflow := q.overflowed
	q.overflowed = 0
	return out, overflow
}

// DrainEntriesWait behaves like DrainEntries but, when empty, waits up
// to timeout for a message to arrive, returning early if cancel closes.
func (q *Queue) DrainEntriesWait(max int, timeout time.Duration, cancel <-chan struct{}) ([]Entry, uint64) {
	if out, overflow := q.DrainEntries(max); out != nil {
		return out, overflow
	}
	if timeout <= 0 {
		return nil, 0
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		select {
		case <-q.notify:
			if out, overflow := q.DrainEntries(max); out != nil {
				return out, overflow
			}
		case <-timer.C:
			return q.DrainEntries(max)
		case <-cancel:
			return nil, 0
		}
	}
}

// Wakeup returns the queue's notification channel: it receives (with a
// buffer of one, coalescing bursts) after every Push. The streaming edge
// parks an idle client here — no ticker, no goroutine per tick.
func (q *Queue) Wakeup() <-chan struct{} { return q.notify }

// LastSeq reports the most recently assigned sequence number (0 when
// nothing has been pushed): the resume token for a client that is fully
// caught up.
func (q *Queue) LastSeq() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.seq
}

// Resume serves a reconnecting stream: it returns, in order, every
// retained entry with sequence number greater than fromSeq, and the
// number of messages irretrievably lost because the replay ring rotated
// past them. The undelivered window is absorbed into the splice (its
// entries are covered by the ring), so a subsequent drain does not
// deliver duplicates; any pending overflow count is cleared because the
// loss is reported exactly.
func (q *Queue) Resume(fromSeq uint64) (ents []Entry, lost uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if fromSeq > q.seq {
		// A token from the future (manager restart, client bug): treat
		// the client as caught up rather than replaying everything.
		fromSeq = q.seq
	}
	for i := 0; i < q.ringLen; i++ {
		e := q.ring[(q.ringHead+i)%q.ringCap]
		if e.Seq > fromSeq {
			ents = append(ents, e)
		}
	}
	switch {
	case q.ringLen > 0:
		if oldest := q.ring[q.ringHead].Seq; fromSeq+1 < oldest {
			lost = oldest - fromSeq - 1
		}
	default:
		lost = q.seq - fromSeq
	}
	q.buf = q.buf[:0]
	q.overflowed = 0
	return ents, lost
}

// SnapshotState captures the queue's durable state for a snapshot: the
// last assigned sequence number and the replay ring's entries, oldest
// first. The undelivered window is not captured separately — clients
// reconnect with resume tokens after a restart, and Resume serves from
// the ring.
func (q *Queue) SnapshotState() (seq uint64, ring []Entry) {
	q.mu.Lock()
	defer q.mu.Unlock()
	ring = make([]Entry, 0, q.ringLen)
	for i := 0; i < q.ringLen; i++ {
		ring = append(ring, q.ring[(q.ringHead+i)%q.ringCap])
	}
	return q.seq, ring
}

// RestoreState rebuilds the queue from a snapshot without journaling:
// the sequence counter resumes where it left off (so post-restart pushes
// continue the same token space) and the ring refills for resume
// splicing. The undelivered window stays empty: a restart must not
// re-deliver messages to polling clients that may already have seen
// them; resumable clients splice exactly via their tokens.
func (q *Queue) RestoreState(seq uint64, ring []Entry) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if seq > q.seq {
		q.seq = seq
	}
	for _, e := range ring {
		q.ringPut(e)
	}
}

// RestoreEntry re-applies one journaled push during WAL replay: it
// advances the sequence counter and refills the ring, skipping entries
// the snapshot already covered (replay idempotence). Like RestoreState
// it leaves the undelivered window alone.
func (q *Queue) RestoreEntry(e Entry) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if e.Seq <= q.seq {
		return
	}
	q.seq = e.Seq
	q.ringPut(e)
}

// Len reports the number of undelivered messages.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf)
}

// Stats reports drop count and high-water mark.
func (q *Queue) Stats() (dropped uint64, highWater int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.dropped, q.highWater
}
