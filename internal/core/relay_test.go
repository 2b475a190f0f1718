package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"discover/internal/orb"
	"discover/internal/telemetry"
	"discover/internal/wire"
)

// TestDeliverBatchMatchesDeliver proves the batched control-channel push
// is observationally equivalent to the per-message form: the same
// messages, invoked either way against a real substrate, reach a
// connected client session in the same order.
func TestDeliverBatchMatchesDeliver(t *testing.T) {
	n := newTestNet(t)
	a := n.addDomain("rutgers")
	b := n.addDomain("caltech")
	as := n.attachApp(a, "wave", defaultUsers())
	n.discoverAll()
	appID := as.AppID()

	sess, err := b.srv.Login(context.Background(), "alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.srv.ConnectApp(context.Background(), sess, appID); err != nil {
		t.Fatal(err)
	}
	sess.Buffer.DrainEntries(0) // discard connect-time traffic
	// The host's app-registered event is a oneway that can land at any
	// point after the application registered, so it is dropped by
	// identity rather than counted against either path.
	drain := func() []*wire.Message {
		var out []*wire.Message
		for _, m := range drained(sess.Buffer) {
			if m.Kind == wire.KindEvent && m.Op == "app-registered" && m.App == appID {
				continue
			}
			out = append(out, m)
		}
		return out
	}

	msgs := make([]*wire.Message, 6)
	for i := range msgs {
		msgs[i] = wire.NewUpdate(appID, uint64(1000+i),
			wire.Param{Key: "i", Value: fmt.Sprint(i)})
	}
	bControl := orb.ObjRef{Addr: b.orb.Addr(), Key: ControlKey}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// Per-message deliver (two-way, so arrival is synchronous).
	for _, m := range msgs {
		if err := a.orb.Invoke(ctx, bControl, "deliver",
			deliverReq{App: appID, Msg: m, From: "rutgers"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	viaDeliver := drain()

	// Same messages as one deliverBatch.
	items := make([]deliverItem, len(msgs))
	for i, m := range msgs {
		items[i] = deliverItem{App: appID, Msg: m}
	}
	if err := a.orb.Invoke(ctx, bControl, "deliverBatch",
		deliverBatchReq{Items: items, From: "rutgers"}, nil); err != nil {
		t.Fatal(err)
	}
	viaBatch := drain()

	if len(viaDeliver) != len(msgs) {
		t.Fatalf("deliver path delivered %d messages, want %d", len(viaDeliver), len(msgs))
	}
	if len(viaBatch) != len(viaDeliver) {
		t.Fatalf("deliverBatch delivered %d messages, deliver delivered %d",
			len(viaBatch), len(viaDeliver))
	}
	for i := range viaDeliver {
		d, bm := viaDeliver[i], viaBatch[i]
		if d.Kind != bm.Kind || d.Seq != bm.Seq || d.Params[0].Value != bm.Params[0].Value {
			t.Errorf("message %d differs: deliver=%+v batch=%+v", i, d, bm)
		}
	}

	// The real subscription (created by ConnectApp above) registered a
	// relay sender at the host; it must be visible in the stats snapshot.
	rows := a.sub.RelayStats()
	found := false
	for _, r := range rows {
		if r.Peer == "caltech" {
			found = true
		}
	}
	if !found {
		t.Errorf("host RelayStats has no caltech row: %+v", rows)
	}
}

// TestRelayBatchInvocationCount pins the tentpole's N -> ceil(N/K) claim
// with counters: 100 queued messages drained with batchMax=32 must go out
// as exactly 4 ORB invocations (32+32+32+4).
func TestRelayBatchInvocationCount(t *testing.T) {
	n := newTestNet(t)
	a := n.addDomain("rutgers")
	n.addDomain("caltech")
	n.discoverAll()

	var peer peerInfo
	for _, p := range a.sub.peers.list() {
		if p.name == "caltech" {
			peer = p
		}
	}
	if peer.addr == "" {
		t.Fatal("caltech not discovered")
	}

	// Build the sender by hand so the queue can be preloaded before the
	// drain loop starts: that makes the batch boundaries deterministic.
	r := &relaySender{
		sub:       a.sub,
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
	a.sub.wg.Add(1)
	go r.loop()

	waitFor(t, 5*time.Second, func() bool { return r.delivered.Load() == total })
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
	n := newTestNet(t)
	a := n.addDomain("rutgers")

	// 127.0.0.1:1 is essentially guaranteed connection-refused.
	r := newRelaySender(a.sub, peerInfo{name: "ghost", addr: "127.0.0.1:1"})
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
