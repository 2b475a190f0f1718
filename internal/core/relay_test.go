package core

import (
	"testing"
	"time"

	"discover/internal/telemetry"
	"discover/internal/wire"
)

// TestRelayBatchInvocationCount pins the tentpole's N -> ceil(N/K) claim
// with counters: 100 queued messages drained with batchMax=32 must go out
// as exactly 4 ORB invocations (32+32+32+4).
func TestRelayBatchInvocationCount(t *testing.T) {
	s := newBareSubstrate(t)
	fp := newFakePeer(t, nil)
	peer := peerInfo{name: "fake", addr: fp.orb.Addr()}

	// Build the sender by hand so the queue can be preloaded before the
	// drain loop starts: that makes the batch boundaries deterministic.
	r := &relaySender{
		sub:       s,
		peer:      peer,
		queue:     make(chan relayItem, relayQueueDepth),
		done:      make(chan struct{}),
		batchMax:  DefaultRelayBatch,
		flushHist: telemetry.GetHistogram("discover_relay_flush_seconds", "peer", peer.name),
		waitHist:  telemetry.GetHistogram("discover_relay_queue_wait_seconds", "peer", peer.name),
	}
	defer r.close()
	const total = 100
	for i := 0; i < total; i++ {
		r.queue <- relayItem{app: "wave", msg: wire.NewUpdate("wave", uint64(i))}
	}
	s.wg.Add(1)
	go r.loop()

	waitFor(t, 5*time.Second, func() bool { return fp.delivered.Load() == total })
	if got := r.invocations.Load(); got != 4 {
		t.Errorf("invocations = %d, want ceil(100/32) = 4", got)
	}
	if got := r.batches.Load(); got != 4 {
		t.Errorf("batches = %d, want 4", got)
	}
	if got := r.failures.Load(); got != 0 {
		t.Errorf("failures = %d, want 0", got)
	}
}

// TestRelayQueueFullDrops checks the shedding policy: a full queue drops
// and counts rather than blocking the broadcaster.
func TestRelayQueueFullDrops(t *testing.T) {
	r := &relaySender{
		peer:      peerInfo{name: "slow"},
		queue:     make(chan relayItem, 2),
		done:      make(chan struct{}),
		batchMax:  DefaultRelayBatch,
		flushHist: telemetry.GetHistogram("discover_relay_flush_seconds", "peer", "slow"),
		waitHist:  telemetry.GetHistogram("discover_relay_queue_wait_seconds", "peer", "slow"),
	}
	deliver := r.deliverFunc("wave")
	for i := 0; i < 5; i++ {
		deliver(wire.NewUpdate("wave", uint64(i)))
	}
	st := r.stats()
	if st.Dropped != 3 {
		t.Errorf("dropped = %d, want 3", st.Dropped)
	}
	if st.Queued != 2 {
		t.Errorf("queued = %d, want 2", st.Queued)
	}
	if st.Peer != "slow" {
		t.Errorf("peer = %q", st.Peer)
	}
}

// TestRelayBackoffOnDeadPeer checks that a failing push counts a failure
// and the sender keeps running (backing off) instead of spinning or dying.
func TestRelayBackoffOnDeadPeer(t *testing.T) {
	s := newBareSubstrate(t)

	// 127.0.0.1:1 is essentially guaranteed connection-refused.
	r := newRelaySender(s, peerInfo{name: "ghost", addr: "127.0.0.1:1"})
	defer r.close()
	r.deliverFunc("wave")(wire.NewUpdate("wave", 1))

	waitFor(t, 5*time.Second, func() bool { return r.failures.Load() >= 1 })
	if got := r.delivered.Load(); got != 0 {
		t.Errorf("delivered = %d to a dead peer", got)
	}
	// Still alive: a later enqueue is accepted (the loop is sleeping in
	// backoff, not exited).
	r.deliverFunc("wave")(wire.NewUpdate("wave", 2))
	if got := r.dropped.Load(); got != 0 {
		t.Errorf("dropped = %d, want 0 (queue nearly empty)", got)
	}
}
