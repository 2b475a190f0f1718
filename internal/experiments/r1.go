package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"discover/internal/core"
	"discover/internal/netsim"
	"discover/internal/wire"
)

// RunR1 is the robustness experiment: kill and partition domains
// mid-collaboration and check graceful degradation and reconvergence.
//
// Three domains federate over the simulated WAN. A client at the edge
// domain steers an application hosted at the host domain. Then the
// east-west link partitions: the failure detectors on both sides must
// open their breakers within core.DefaultDownAfter probe rounds, after
// which remote operations fail fast with ErrPeerDown (well under the RPC
// timeout), the host releases the vanished edge client's steering lock to
// a waiting local client (at-most-one holder preserved), and the edge
// server keeps listing the host's application — marked unavailable —
// while delivering peer-down events to its clients' FIFOs. After Heal the
// federation reconverges: breakers close, subscriptions are reasserted,
// updates flow again, and the lock is once more acquirable remotely.
// Finally a third domain's site is killed outright; the survivors are
// unaffected.
//
// The detector is driven exclusively through CheckPeersNow — no sleeps
// stand in for synchronization.
func RunR1(rtt time.Duration) (Result, error) {
	if rtt <= 0 {
		rtt = 10 * time.Millisecond
	}
	res := Result{ID: "R1", Title: "Fault injection: partition, peer death, reconvergence"}

	const dialTimeout = 150 * time.Millisecond
	fed, err := NewFederation(FederationConfig{
		Domains: []struct {
			Name string
			Site netsim.Site
		}{DomainAt("host", "east"), DomainAt("edge", "west"), DomainAt("aux", "south")},
		Topology: func(t *netsim.Topology) {
			t.SetRTT("east", "west", rtt)
			t.SetRTT("east", "south", rtt)
			t.SetRTT("west", "south", rtt)
		},
		DialTimeout:    dialTimeout,
		HeartbeatEvery: time.Hour, // driven manually via CheckPeersNow
	})
	if err != nil {
		return res, err
	}
	defer fed.Close()
	host, edge, aux := fed.Domains[0], fed.Domains[1], fed.Domains[2]

	as, err := AttachApp(host, "r1-app", 1)
	if err != nil {
		return res, err
	}
	defer as.Close()
	appID := as.AppID()
	rpcTimeout := 10 * time.Second // core default; the breaker must beat it 10x

	// Baseline: the edge client connects and steers remotely.
	edgeSess, err := LoginLocal(edge, "alice")
	if err != nil {
		return res, err
	}
	if _, err := edge.Srv.ConnectApp(context.Background(), edgeSess, appID); err != nil {
		return res, fmt.Errorf("baseline remote connect: %w", err)
	}
	if granted, _, err := edge.Srv.LockOp(context.Background(), edgeSess, true); err != nil || !granted {
		return res, fmt.Errorf("baseline remote lock: granted=%v err=%v", granted, err)
	}
	if _, err := edge.Srv.SubmitCommand(context.Background(), edgeSess, "set_param", []wire.Param{
		{Key: "name", Value: "source_amp"}, {Key: "value", Value: "1.1"},
	}); err != nil {
		return res, fmt.Errorf("baseline remote steer: %w", err)
	}
	// Populate the edge's remote-app cache (the degraded listing serves
	// the last good snapshot).
	if apps := edge.Srv.Apps(context.Background(), "alice"); len(apps) == 0 {
		return res, fmt.Errorf("baseline listing empty")
	}

	// A host-local client queues behind the edge client's lock.
	hostSess, err := LoginLocal(host, "alice")
	if err != nil {
		return res, err
	}
	if _, err := host.Srv.ConnectApp(context.Background(), hostSess, appID); err != nil {
		return res, err
	}
	waiterErr := make(chan error, 1)
	waiterCtx, cancelWaiter := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancelWaiter()
	go func() {
		waiterErr <- host.Srv.Locks().Acquire(waiterCtx, appID, hostSess.ClientID, 0)
	}()
	waitDeadline := time.Now().Add(5 * time.Second)
	for host.Srv.Locks().QueueLen(appID) == 0 && time.Now().Before(waitDeadline) {
		time.Sleep(time.Millisecond)
	}
	if host.Srv.Locks().QueueLen(appID) == 0 {
		return res, fmt.Errorf("host-local waiter never queued")
	}

	// --- Partition east/west and drive both failure detectors. ---
	fed.Net.Partition("east", "west")
	detectStart := time.Now()
	for i := 0; i < core.DefaultDownAfter; i++ {
		edge.Sub.CheckPeersNow()
		host.Sub.CheckPeersNow()
	}
	detectTime := time.Since(detectStart)
	stateAt := func(d *Domain, peer string) string {
		for _, ph := range d.Sub.PeerHealth() {
			if ph.Peer == peer {
				return ph.State
			}
		}
		return "unknown"
	}
	res.Rows = append(res.Rows, Row{
		Name:  fmt.Sprintf("partition detection after %d probe rounds", core.DefaultDownAfter),
		Paper: "peer failure is detected at runtime, not configured statically",
		Measured: fmt.Sprintf("edge sees host %s, host sees edge %s, in %s",
			stateAt(edge, "host"), stateAt(host, "edge"), detectTime.Round(time.Millisecond)),
		Pass: stateAt(edge, "host") == "down" && stateAt(host, "edge") == "down",
	})

	// Breaker open: remote command fails fast with the typed error.
	start := time.Now()
	_, cmdErr := edge.Srv.SubmitCommand(context.Background(), edgeSess, "status", nil)
	failFast := time.Since(start)
	res.Rows = append(res.Rows, Row{
		Name:  "remote command with breaker open",
		Paper: "degrade gracefully instead of hanging on a dead peer",
		Measured: fmt.Sprintf("failed in %s (err: %v), budget %s",
			failFast.Round(time.Microsecond), cmdErr, rpcTimeout/10),
		Pass: errors.Is(cmdErr, core.ErrPeerDown) && failFast < rpcTimeout/10,
	})

	// The host released the vanished edge client's lock to the local
	// waiter — promptly, not after the 30s lease expired.
	var waiterOutcome error
	waiterWait := time.Now()
	select {
	case waiterOutcome = <-waiterErr:
	case <-time.After(10 * time.Second):
		waiterOutcome = fmt.Errorf("waiter still blocked")
	}
	holder, held := host.Srv.Locks().Holder(appID)
	res.Rows = append(res.Rows, Row{
		Name:  "steering lock failover to local waiter",
		Paper: "locks cannot be wedged by a departed remote client",
		Measured: fmt.Sprintf("waiter granted in %s (err=%v), holder now %q",
			time.Since(waiterWait).Round(time.Millisecond), waiterOutcome, holder),
		Pass: waiterOutcome == nil && held && holder == hostSess.ClientID,
	})

	// The edge still lists the host's application, marked unavailable,
	// and its client's FIFO carries the peer-down system event.
	apps := edge.Srv.Apps(context.Background(), "alice")
	var unavailable bool
	for _, a := range apps {
		if a.ID == appID && a.Unavailable {
			unavailable = true
		}
	}
	var sawPeerDown bool
	ents, _ := edgeSess.Buffer.DrainEntries(0)
	for _, e := range ents {
		m := e.Msg
		if m.Kind == wire.KindEvent && m.Op == "peer-down" && m.Text == "host" {
			sawPeerDown = true
		}
	}
	res.Rows = append(res.Rows, Row{
		Name:  "degraded listing and system events",
		Paper: "remote state is marked unavailable, not silently dropped",
		Measured: fmt.Sprintf("app listed unavailable: %v, peer-down event in FIFO: %v",
			unavailable, sawPeerDown),
		Pass: unavailable && sawPeerDown,
	})

	// --- Heal and reconverge. ---
	host.Srv.Locks().Release(appID, hostSess.ClientID)
	fed.Net.Heal("east", "west")
	edge.Sub.CheckPeersNow() // recovery probe closes the breaker
	host.Sub.CheckPeersNow()

	healthyAgain := stateAt(edge, "host") == "healthy" && stateAt(host, "edge") == "healthy"
	regranted, _, relockErr := edge.Srv.LockOp(context.Background(), edgeSess, true)
	apps = edge.Srv.Apps(context.Background(), "alice")
	var availableAgain bool
	for _, a := range apps {
		if a.ID == appID && !a.Unavailable {
			availableAgain = true
		}
	}
	// Updates flow again through the reasserted subscription: pump phases
	// until one reaches the edge client's FIFO (bounded observation).
	updatesFlow := false
	flowDeadline := time.Now().Add(15 * time.Second)
	for !updatesFlow && time.Now().Before(flowDeadline) {
		if _, err := as.RunPhase(); err != nil {
			break
		}
		ents, _ := edgeSess.Buffer.DrainEntries(0)
		for _, e := range ents {
			m := e.Msg
			if m.Kind == wire.KindUpdate {
				updatesFlow = true
			}
		}
	}
	var opens, closes uint64
	for _, ph := range edge.Sub.PeerHealth() {
		if ph.Peer == "host" {
			opens, closes = ph.BreakerOpens, ph.BreakerCloses
		}
	}
	res.Rows = append(res.Rows, Row{
		Name:  "reconvergence after heal",
		Paper: "the federation reforms once connectivity returns",
		Measured: fmt.Sprintf("healthy=%v relock(granted=%v err=%v) listed-available=%v updates-flow=%v breaker opens/closes=%d/%d",
			healthyAgain, regranted, relockErr, availableAgain, updatesFlow, opens, closes),
		Pass: healthyAgain && regranted && relockErr == nil && availableAgain &&
			updatesFlow && opens >= 1 && closes >= 1,
	})
	edge.Srv.LockOp(context.Background(), edgeSess, false)

	// --- Kill the aux site outright; survivors are unaffected. ---
	fed.Net.KillSite("south")
	for i := 0; i < core.DefaultDownAfter; i++ {
		host.Sub.CheckPeersNow()
		edge.Sub.CheckPeersNow()
	}
	_, steerErr := edge.Srv.SubmitCommand(context.Background(), edgeSess, "status", nil)
	res.Rows = append(res.Rows, Row{
		Name:  "site death leaves survivors collaborating",
		Paper: "failures degrade the federation instead of collapsing it",
		Measured: fmt.Sprintf("host sees aux %s, edge->host command err=%v",
			stateAt(host, "aux"), steerErr),
		Pass: stateAt(host, "aux") == "down" && steerErr == nil,
	})
	_ = aux
	return res, nil
}
