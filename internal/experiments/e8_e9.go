package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"discover/internal/netsim"
	"discover/internal/session"
	"discover/internal/wire"
)

// RunE8 characterizes the per-client FIFO buffers required by the
// poll-and-pull HTTP model (§6.2): a slow client sheds old messages
// instead of holding server memory, a fast client loses nothing, and
// delivery order is preserved for both.
func RunE8(updates int, capacity int) (Result, error) {
	if updates <= 0 {
		updates = 1000
	}
	if capacity <= 0 {
		capacity = 64
	}
	res := Result{ID: "E8", Title: "Per-client FIFO buffers and slow clients (§6.2)"}

	fast := session.NewQueue(capacity, 0)
	slow := session.NewQueue(capacity, 0)

	// The fast client drains continuously; the slow one does not poll at
	// all until the burst is over — the stalled-browser case the FIFO
	// policy exists for. Updates arrive in bursts smaller than the buffer
	// with a pause after each, so a polling client keeps up losslessly.
	var wg sync.WaitGroup
	var fastCount, slowCount int
	var fastOrdered, slowOrdered = true, true
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last uint64
		for {
			ents, _ := fast.DrainEntriesWait(0, time.Millisecond, nil)
			for _, e := range ents {
				m := e.Msg
				if m.Seq <= last {
					fastOrdered = false
				}
				last = m.Seq
				fastCount++
			}
			select {
			case <-stop:
				if fast.Len() == 0 {
					return
				}
			default:
			}
		}
	}()

	burst := capacity / 2
	for i := 1; i <= updates; i++ {
		m := wire.NewUpdate("app", uint64(i))
		fast.Push(m)
		slow.Push(m)
		if i%burst == 0 {
			time.Sleep(2 * time.Millisecond) // inter-burst gap
		}
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()

	// The slow client finally polls: it gets only the newest `capacity`
	// messages, still in order.
	var last uint64
	ents, _ := slow.DrainEntries(0)
	for _, e := range ents {
		m := e.Msg
		if m.Seq <= last {
			slowOrdered = false
		}
		last = m.Seq
		slowCount++
	}

	fastDrops, fastHW := fast.Stats()
	slowDrops, slowHW := slow.Stats()
	res.Rows = append(res.Rows, Row{
		Name:  fmt.Sprintf("%d updates, capacity %d: fast poller vs slow poller", updates, capacity),
		Paper: "FIFO buffers at the server absorb slow clients at a memory/performance cost",
		Measured: fmt.Sprintf("fast: %d delivered, %d dropped, high-water %d; slow: %d delivered, %d dropped, high-water %d; order kept: %v/%v",
			fastCount, fastDrops, fastHW, slowCount, slowDrops, slowHW, fastOrdered, slowOrdered),
		Pass: fastDrops == 0 && fastCount == updates &&
			slowDrops > 0 && slowCount == capacity &&
			slowHW == capacity && fastOrdered && slowOrdered,
	})
	return res, nil
}

// RunE9 measures distributed locking (§5.2.4): lock state lives only at
// the host server, a relayed lock costs about one WAN round trip more
// than a local one, and mutual exclusion holds across servers.
func RunE9(iters int, rtt time.Duration) (Result, error) {
	if iters <= 0 {
		iters = 15
	}
	if rtt <= 0 {
		rtt = 40 * time.Millisecond
	}
	res := Result{ID: "E9", Title: "Distributed locking at the host server (§5.2.4)"}

	fed, err := NewFederation(func(t *netsim.Topology) { t.SetRTT("east", "west", rtt) }, nil, 0,
		Place("host", "east"), Place("edge", "west"))
	if err != nil {
		return res, err
	}
	defer fed.Close()
	host, edge := fed.Domains[0], fed.Domains[1]
	as, err := AttachApp(host, "lock-app", 1)
	if err != nil {
		return res, err
	}
	defer as.Close()
	if err := edge.Substrate.DiscoverPeers(); err != nil {
		return res, err
	}
	appID := as.AppID()

	localSess, err := LoginLocal(host, "alice")
	if err != nil {
		return res, err
	}
	if _, err := host.Server.ConnectApp(context.Background(), localSess, appID); err != nil {
		return res, err
	}
	remoteSess, err := LoginLocal(edge, "alice")
	if err != nil {
		return res, err
	}
	if _, err := edge.Server.ConnectApp(context.Background(), remoteSess, appID); err != nil {
		return res, err
	}

	timeLock := func(d *Domain, sess *session.Session) (time.Duration, error) {
		var total time.Duration
		for i := 0; i < iters; i++ {
			start := time.Now()
			granted, holder, err := d.Server.LockOp(context.Background(), sess, true)
			if err != nil {
				return 0, err
			}
			if !granted {
				return 0, fmt.Errorf("experiments: lock denied, holder %s", holder)
			}
			total += time.Since(start)
			if _, _, err := d.Server.LockOp(context.Background(), sess, false); err != nil {
				return 0, err
			}
		}
		return total / time.Duration(iters), nil
	}

	localLat, err := timeLock(host, localSess)
	if err != nil {
		return res, err
	}
	remoteLat, err := timeLock(edge, remoteSess)
	if err != nil {
		return res, err
	}
	extra := remoteLat - localLat
	res.Rows = append(res.Rows, Row{
		Name:  fmt.Sprintf("lock acquire latency, RTT %s", rtt),
		Paper: "remote servers only relay lock requests to the host server",
		Measured: fmt.Sprintf("local %s, relayed %s, overhead %s",
			localLat.Round(time.Microsecond), remoteLat.Round(time.Millisecond), extra.Round(time.Millisecond)),
		Pass: extra > rtt/2 && extra < 3*rtt,
	})

	// Mutual exclusion across servers under contention.
	var mu sync.Mutex
	inCritical, violations, grants := 0, 0, 0
	var wg sync.WaitGroup
	contend := func(d *Domain, sess *session.Session) {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			granted, _, err := d.Server.LockOp(context.Background(), sess, true)
			if err != nil || !granted {
				time.Sleep(time.Millisecond)
				continue
			}
			mu.Lock()
			inCritical++
			if inCritical != 1 {
				violations++
			}
			grants++
			mu.Unlock()
			time.Sleep(time.Millisecond)
			mu.Lock()
			inCritical--
			mu.Unlock()
			d.Server.LockOp(context.Background(), sess, false)
		}
	}
	wg.Add(2)
	go contend(host, localSess)
	go contend(edge, remoteSess)
	wg.Wait()

	res.Rows = append(res.Rows, Row{
		Name:     "mutual exclusion under cross-server contention",
		Paper:    "only one client drives the application at any time",
		Measured: fmt.Sprintf("%d grants observed, %d violations", grants, violations),
		Pass:     violations == 0 && grants > 0,
	})
	return res, nil
}
