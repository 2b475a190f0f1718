package core

import (
	"sync/atomic"
	"time"

	"discover/internal/orb"
	"discover/internal/server"
	"discover/internal/telemetry"
	"discover/internal/wire"
)

// relaySender is the host-side push path for one subscribed peer: an
// ordered, bounded queue drained by a single goroutine that invokes the
// peer's Control servant. One sender serves every application that peer
// subscribed to, so per-application ordering is preserved.
//
// Each wakeup drains up to batchMax queued items and pushes them with ONE
// deliverBatch oneway invocation — the batching that keeps the per-message
// middleware overhead (ablation A1) off the WAN hot path. The peer's ORB
// runs one connection's oneways in arrival order, so batches land in the
// order they were drained.
type relaySender struct {
	sub      *Substrate
	peer     peerInfo
	queue    chan relayItem
	done     chan struct{}
	batchMax int
	batch    []relayItem // drain scratch; loop goroutine only

	// Histogram pointers are resolved once at construction so the loop's
	// hot path never touches the registry map (and stays alloc-free).
	flushHist *telemetry.Histogram // time spent pushing one drained batch
	waitHist  *telemetry.Histogram // per-message enqueue-to-drain wait

	delivered   atomic.Uint64 // messages handed to the ORB
	dropped     atomic.Uint64 // messages shed on a full queue
	batches     atomic.Uint64 // deliverBatch invocations issued
	invocations atomic.Uint64 // total ORB invocations issued
	failures    atomic.Uint64 // failed pushes (whole batch lost)
}

type relayItem struct {
	app string
	msg *wire.Message
	at  time.Time // enqueue time, for the queue-wait histogram
}

// relayQueueDepth bounds the per-peer push queue; beyond it messages are
// dropped (slow-peer shedding, same policy as client FIFOs).
const relayQueueDepth = 1024

// DefaultRelayBatch is the drain limit per push invocation.
const DefaultRelayBatch = 32

// Backoff bounds for a peer whose pushes fail: without it the sender
// retries the dead peer at full queue-drain rate and floods the log.
const (
	relayBackoffMin = 100 * time.Millisecond
	relayBackoffMax = 5 * time.Second
)

func newRelaySender(s *Substrate, peer peerInfo) *relaySender {
	r := &relaySender{
		sub:       s,
		peer:      peer,
		queue:     make(chan relayItem, relayQueueDepth),
		done:      make(chan struct{}),
		batchMax:  DefaultRelayBatch,
		flushHist: telemetry.GetHistogram("discover_relay_flush_seconds", "peer", peer.name),
		waitHist:  telemetry.GetHistogram("discover_relay_queue_wait_seconds", "peer", peer.name),
	}
	s.wg.Add(1)
	go r.loop()
	return r
}

// deliverFunc adapts the sender to a collab.DeliverFunc for one app.
func (r *relaySender) deliverFunc(appID string) func(*wire.Message) {
	return func(m *wire.Message) {
		select {
		case r.queue <- relayItem{app: appID, msg: m, at: time.Now()}:
		case <-r.done:
		default:
			// Queue full: drop, as with slow clients. Nothing re-sends
			// the message: replicated collaboration ops come back with
			// the periodic anti-entropy exchange (reassertSubscriptions),
			// updates and responses are lost. Counted so shedding is
			// visible in GET /api/v1/stats.
			r.dropped.Add(1)
		}
	}
}

// drain collects first plus up to batchMax-1 further queued items without
// blocking. The single drain goroutine preserves enqueue order.
func (r *relaySender) drain(first relayItem) []relayItem {
	batch := append(r.batch[:0], first)
	for len(batch) < r.batchMax {
		select {
		case it := <-r.queue:
			batch = append(batch, it)
		default:
			r.batch = batch
			return batch
		}
	}
	r.batch = batch
	return batch
}

func (r *relaySender) loop() {
	defer r.sub.wg.Done()
	var backoff time.Duration
	for {
		select {
		case <-r.done:
			return
		case it := <-r.queue:
			// Park while the peer's gate is open: the recovery prober owns
			// retries, and wakes us by closing the recovered channel (as
			// does discovery dropping the peer).
			// Queued traffic beyond the queue bound is shed as usual.
			if ch := r.sub.peers.blockedCh(r.peer.name); ch != nil {
				select {
				case <-r.done:
					return
				case <-ch:
					backoff = 0
				}
			}
			batch := r.drain(it)
			t0 := time.Now()
			for i := range batch {
				r.waitHist.Observe(t0.Sub(batch[i].at))
			}
			if err := r.send(batch); err != nil {
				r.failures.Add(1)
				r.sub.cfg.Logf("core %s: relay to %s: %v", r.sub.srv.Name(), r.peer.name, err)
				// The peer is likely down or restarted: drop the pooled
				// connection so the next attempt redials, feed the failure
				// detector, and back off instead of retrying at full drain
				// rate.
				r.sub.orb.DropConn(r.peer.addr)
				if orb.IsPeerFailure(err) {
					r.sub.peers.observe(r.peer.name, err, 0)
				}
				backoff = nextBackoff(backoff)
				select {
				case <-r.done:
					return
				case <-time.After(backoff):
				}
			} else {
				backoff = 0
				r.flushHist.Observe(time.Since(t0))
				r.delivered.Add(uint64(len(batch)))
			}
		}
	}
}

func nextBackoff(d time.Duration) time.Duration {
	if d == 0 {
		return relayBackoffMin
	}
	d *= 2
	if d > relayBackoffMax {
		d = relayBackoffMax
	}
	return d
}

// send pushes one drained batch to the peer as a single oneway
// invocation: the push is pipelined, never blocked on a WAN round trip.
func (r *relaySender) send(batch []relayItem) error {
	ctx, cancel := r.sub.rpcCtx()
	defer cancel()
	r.invocations.Add(1)
	if len(batch) == 1 {
		return r.sub.orb.InvokeOneway(ctx, r.peer.controlRef(), "deliver",
			deliverReq{App: batch[0].app, Msg: batch[0].msg, From: r.sub.srv.Name()})
	}
	items := make([]deliverItem, len(batch))
	for i, it := range batch {
		items[i] = deliverItem{App: it.app, Msg: it.msg}
	}
	r.batches.Add(1)
	return r.sub.orb.InvokeOneway(ctx, r.peer.controlRef(), "deliverBatch",
		deliverBatchReq{Items: items, From: r.sub.srv.Name()})
}

// stats snapshots the sender's counters for /api/stats.
func (r *relaySender) stats() server.RelayStats {
	return server.RelayStats{
		Peer:        r.peer.name,
		Queued:      len(r.queue),
		Delivered:   r.delivered.Load(),
		Dropped:     r.dropped.Load(),
		Batches:     r.batches.Load(),
		Invocations: r.invocations.Load(),
		Failures:    r.failures.Load(),
	}
}

func (r *relaySender) close() {
	select {
	case <-r.done:
	default:
		close(r.done)
	}
}
