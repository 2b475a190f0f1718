package experiments

import (
	"context"
	"sync"
	"time"

	"discover/internal/orb"
	"discover/internal/wire"
)

// The losing arm of experiment A3: the prototype's propagation design,
// in which "the CorbaProxy objects poll each other for updates and
// responses" (§5.2.3). The substrate ships push only; this file rebuilds
// just enough of the poll design to measure it. A servant registered on
// the host's ORB serves the application log after a sequence number, and
// a ticker at the edge invokes it through the edge's ORB, so the
// simulated WAN carries and counts every poll.

// logPollKey is the object key of the poll servant on the host's ORB.
const logPollKey = "A3LogPoll"

type (
	logPollReq struct {
		App   string
		Since uint64 // last log sequence number the poller has seen
	}
	logPollResp struct {
		Msgs []*wire.Message
		Last uint64 // sequence number to pass as Since next time
	}
)

// LogPoller pulls one remote application's log from its host on a fixed
// interval and records the updates it receives.
type LogPoller struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu      sync.Mutex
	latest  uint64        // highest update sequence number received
	changed chan struct{} // closed and replaced when latest grows
}

// StartLogPoller registers the poll servant on host's ORB and starts
// polling appID's log from edge every interval. Stop it before the
// federation closes.
func StartLogPoller(host, edge *Domain, appID string, every time.Duration) *LogPoller {
	host.ORB.Register(logPollKey, orb.MethodMap{
		"pollUpdates": orb.Handler(func(r logPollReq) (logPollResp, error) {
			resp := logPollResp{Last: r.Since}
			for _, e := range host.Server.Archive().ApplicationLog(r.App).Since(r.Since) {
				resp.Msgs = append(resp.Msgs, e.Msg)
				resp.Last = e.Seq
			}
			return resp, nil
		}),
	})
	ctx, cancel := context.WithCancel(context.Background())
	p := &LogPoller{cancel: cancel, done: make(chan struct{}), changed: make(chan struct{})}
	ref := orb.ObjRef{Addr: host.ORB.Addr(), Key: logPollKey}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		var since uint64
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			var resp logPollResp
			if err := edge.ORB.Invoke(ctx, ref, "pollUpdates", logPollReq{App: appID, Since: since}, &resp); err != nil {
				continue // a lost poll is retried on the next tick
			}
			since = resp.Last
			for _, m := range resp.Msgs {
				if m.Kind == wire.KindUpdate {
					p.received(m.Seq)
				}
			}
		}
	}()
	return p
}

func (p *LogPoller) received(seq uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if seq > p.latest {
		p.latest = seq
		close(p.changed)
		p.changed = make(chan struct{})
	}
}

// WaitUpdate blocks until the poller has received an update whose
// sequence number is at least seq, or ctx ends.
func (p *LogPoller) WaitUpdate(ctx context.Context, seq uint64) error {
	for {
		p.mu.Lock()
		latest, changed := p.latest, p.changed
		p.mu.Unlock()
		if latest >= seq {
			return nil
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Stop ends polling and waits for the poll goroutine to exit.
func (p *LogPoller) Stop() {
	p.cancel()
	<-p.done
}
