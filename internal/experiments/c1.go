package experiments

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"discover/internal/collab"
	"discover/internal/netsim"
	"discover/internal/portal"
	"discover/internal/session"
)

// RunC1 measures the replicated collaboration log (DESIGN §4l) at
// federation scale: one application hosted at one domain, its
// collaboration group spread over eight domains, on the order of a
// thousand clients. The paper's collaboration groups re-broadcast every
// interaction to every member; the replicated log makes three stronger
// claims, and C1 checks each one's shape:
//
//   - WAN economics: a broadcast crosses the WAN once per *member
//     domain*, not once per client — the relay fan-out to browsers is
//     local to each domain (§5.2.3 inverted: crossings track domains);
//   - convergence under churn and partition: clients join, leave and
//     keep talking while the federation is split; after the heal a
//     bounded number of anti-entropy rounds makes every domain's log
//     byte-identical (same root hash, same materialized state, same
//     membership fold), with nothing lost on either side of the cut;
//   - latecomer replay: a client that joins after the history happened
//     replays the whole whiteboard from its own domain's replica — zero
//     substrate invocations, zero host involvement — through the typed
//     GET /session/{id}/whiteboard resource.
//
// clients is the total session count across the federation (default
// 1000; the smoke test runs far fewer).
func RunC1(clients int) (Result, error) {
	if clients <= 0 {
		clients = 1000
	}
	const nDomains = 8
	res := Result{ID: "C1", Title: "Replicated collaboration log: fan-out, churn, partition, latecomers"}
	snap := C1Snapshot{Clients: clients, Domains: nDomains}

	domains := make([]struct {
		Name string
		Site netsim.Site
	}, nDomains)
	for i := range domains {
		name := fmt.Sprintf("c1d%d", i)
		// One site per domain: every cross-domain byte is WAN traffic.
		domains[i] = DomainAt(name, netsim.Site(name))
	}
	fed, err := NewFederation(FederationConfig{
		Domains: domains,
		// Failed dials into the partition must not stall the chaos phase:
		// the budget is failure-detection policy, not protocol cost, and
		// scales under the race detector like every other wall-clock knob.
		DialTimeout: 40 * time.Millisecond * raceTimeoutScale,
		// Background maintenance off: the harness drives anti-entropy in
		// lockstep (CollabSyncNow), and heartbeat/trader traffic would
		// pollute the crossing counts.
		HeartbeatEvery: time.Hour,
		OfferTTL:       time.Hour,
		DiscoverEvery:  time.Hour,
	})
	if err != nil {
		return res, err
	}
	defer fed.Close()
	ctx := context.Background()

	host := fed.Domains[0]
	asess, err := AttachApp(host, "c1-app", 0)
	if err != nil {
		return res, err
	}
	defer asess.Close()
	appID := asess.AppID()

	// --- Populate: spread the clients round-robin over the domains. The
	// first remote connect per domain establishes the relay subscription
	// and pulls the log; later connects are local joins plus one
	// replicated membership op each.
	sessions := make([][]*session.Session, nDomains)
	var wg sync.WaitGroup
	errs := make([]error, nDomains)
	for i, d := range fed.Domains {
		share := clients / nDomains
		if i < clients%nDomains {
			share++
		}
		wg.Add(1)
		go func(i int, d *Domain, share int) {
			defer wg.Done()
			for c := 0; c < share; c++ {
				sess, err := LoginLocal(d, "alice")
				if err == nil {
					_, err = d.Srv.ConnectApp(ctx, sess, appID)
				}
				if err != nil {
					errs[i] = fmt.Errorf("c1: connect client %d at %s: %w", c, d.Name, err)
					return
				}
				sessions[i] = append(sessions[i], sess)
			}
		}(i, d, share)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	const settleCap = 6
	if _, ok := c1RoundsUntil(fed, settleCap, func() bool { return c1Converged(fed.Domains, appID) }); !ok {
		return res, fmt.Errorf("c1: %d clients never settled into a converged log", clients)
	}

	// --- WAN fan-out: broadcasts from a host-domain client and from a
	// member-domain client, crossings counted at the relays and the
	// member's forward path. Each message should cross the WAN once per
	// remote domain — for the host's: 7 relay pushes; for the member's:
	// 1 forward to the host plus 6 relay pushes onward.
	c1Quiesce(fed)
	const perOrigin = 12
	hostSess, memberSess := sessions[0][0], sessions[3][0]
	member := fed.Domains[3]
	chats0 := c1Group(host, appID).LogInfo().Chats
	relay0 := c1RelayDelivered(fed)
	fwd0 := member.Sub.WireStats().Invocations
	for i := 0; i < perOrigin; i++ {
		if err := host.Srv.Chat(ctx, hostSess, fmt.Sprintf("host line %d", i)); err != nil {
			return res, err
		}
		if err := member.Srv.Chat(ctx, memberSess, fmt.Sprintf("member line %d", i)); err != nil {
			return res, err
		}
	}
	msgs := 2 * perOrigin
	if !c1WaitFor(10*time.Second, func() bool {
		for _, d := range fed.Domains {
			if g, ok := d.Srv.Hub().Lookup(appID); !ok || g.LogInfo().Chats < chats0+msgs {
				return false
			}
		}
		return true
	}) {
		return res, fmt.Errorf("c1: broadcast chats never reached all domains")
	}
	c1Quiesce(fed)
	crossings := (c1RelayDelivered(fed) - relay0) + (member.Sub.WireStats().Invocations - fwd0)
	perMsg := float64(crossings) / float64(msgs)
	naive := clients - 1
	snap.BroadcastMsgs = msgs
	snap.WanCrossings = crossings
	snap.CrossingsPerMsg = perMsg
	snap.NaivePerMsg = naive
	res.Rows = append(res.Rows, Row{
		Name:  fmt.Sprintf("WAN crossings per broadcast, %d clients over %d domains", clients, nDomains),
		Paper: "group traffic crosses the WAN once per member domain, not once per client",
		Measured: fmt.Sprintf("%d msgs cost %d crossings — %.1f per msg vs %d remote domains (naive unicast: %d per msg)",
			msgs, crossings, perMsg, nDomains-1, naive),
		Pass: perMsg >= float64(nDomains-2) && perMsg <= float64(nDomains)+1 &&
			4*crossings <= uint64(msgs*naive),
	})

	// --- Churn: a slice of clients at every domain disconnects and
	// reconnects while chat keeps flowing; the replicated membership fold
	// must converge again in a bounded number of anti-entropy rounds.
	churn := clients / 10
	if churn < nDomains {
		churn = nDomains
	}
	for i, d := range fed.Domains {
		wg.Add(1)
		go func(i int, d *Domain, n int) {
			defer wg.Done()
			for c := 0; c < n && c < len(sessions[i]); c++ {
				sess := sessions[i][c]
				d.Srv.DisconnectApp(ctx, sess)
				d.Srv.Chat(ctx, sess, "post-churn") // must fail: not in group
				if _, err := d.Srv.ConnectApp(ctx, sess, appID); err != nil {
					errs[i] = err
					return
				}
				d.Srv.JoinSubGroup(ctx, sess, fmt.Sprintf("room%d", c%3))
			}
		}(i, d, churn/nDomains)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	const churnCap = 6
	churnRounds, ok := c1RoundsUntil(fed, churnCap, func() bool { return c1Converged(fed.Domains, appID) })
	snap.ChurnEvents = churn / nDomains * nDomains * 3 // leave + rejoin + sub-switch each
	snap.ChurnRounds = churnRounds
	res.Rows = append(res.Rows, Row{
		Name:  "membership churn converges",
		Paper: "joins, leaves and sub-group switches are replicated ops, merged like any other",
		Measured: fmt.Sprintf("%d churn ops across %d domains; logs re-converged after %d sync rounds (cap %d)",
			snap.ChurnEvents, nDomains, churnRounds, churnCap),
		Pass: ok,
	})

	// --- Partition: split the federation down the middle (the host on
	// side A) and keep both sides talking. Side B's forwards to the host
	// black-hole; its ops survive in the local replicas.
	sideA, sideB := fed.Domains[:nDomains/2], fed.Domains[nDomains/2:]
	for _, a := range sideA {
		for _, b := range sideB {
			fed.Net.Partition(a.Site, b.Site)
		}
	}
	var strokes int
	for i := 0; i < 4; i++ { // side A: normal broadcasts through the host
		if err := host.Srv.Whiteboard(ctx, hostSess, []byte{0xA0, byte(i)}); err != nil {
			return res, err
		}
		strokes++
	}
	var smu sync.Mutex
	for i, d := range fed.Domains[nDomains/2:] {
		i, d := i+nDomains/2, d
		// Every partitioned send stalls for the dial budget, so they all
		// run concurrently: per domain, three chats, two strokes, and one
		// membership churn (a leave that cannot reach the host).
		for m := 0; m < 3; m++ {
			wg.Add(1)
			go func(m int) {
				defer wg.Done()
				d.Srv.Chat(ctx, sessions[i][m%len(sessions[i])], fmt.Sprintf("isolated %s %d", d.Name, m))
			}(m)
		}
		for m := 0; m < 2; m++ {
			wg.Add(1)
			go func(m int) {
				defer wg.Done()
				d.Srv.Whiteboard(ctx, sessions[i][0], []byte{0xB0, byte(i), byte(m)})
				smu.Lock()
				strokes++
				smu.Unlock()
			}(m)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.Srv.DisconnectApp(ctx, sessions[i][len(sessions[i])-1])
		}()
	}
	wg.Wait()
	diverged := !c1Converged(fed.Domains, appID)
	snap.PartitionDiverged = diverged

	for _, a := range sideA {
		for _, b := range sideB {
			fed.Net.Heal(a.Site, b.Site)
		}
	}
	// The partition tripped the circuit breakers on both sides; one
	// explicit probe round (normally the heartbeat loop's job) closes
	// them and re-asserts the dropped relay subscriptions.
	for _, d := range fed.Domains {
		wg.Add(1)
		go func(d *Domain) {
			defer wg.Done()
			d.Sub.CheckPeersNow()
		}(d)
	}
	wg.Wait()
	const healCap = 8
	healRounds, ok := c1RoundsUntil(fed, healCap, func() bool { return c1Converged(fed.Domains, appID) })
	identical := ok && c1ByteIdentical(fed.Domains, appID)
	snap.HealRounds = healRounds
	res.Rows = append(res.Rows, Row{
		Name:  "mid-run partition, then byte-identical convergence after heal",
		Paper: "anti-entropy makes every replica byte-identical after the cut heals, nothing lost",
		Measured: fmt.Sprintf("diverged during cut: %v; all %d logs byte-identical %d rounds after heal (cap %d)",
			diverged, nDomains, healRounds, healCap),
		Pass: diverged && identical,
	})
	if !identical {
		return res, fmt.Errorf("c1: federation never re-converged after heal")
	}

	// --- Latecomer: a brand-new client at a side-B domain replays the
	// whole whiteboard — including the strokes born on the other side of
	// the cut — from its own domain's replica, through the typed portal
	// resource, with zero substrate invocations during the replay.
	late := fed.Domains[nDomains-1]
	LoginLocal(late, "bob") // seed the secret; the portal logs in over HTTP
	cl := portal.New(late.BaseURL(), portal.WithHTTPClient(fed.HTTPClientFrom(late.Site)))
	if err := cl.Login(ctx, "bob", "pw"); err != nil {
		return res, err
	}
	if _, err := cl.ConnectApp(ctx, appID); err != nil {
		return res, err
	}
	// The connect relays the latecomer's join op; let it settle so the
	// relay count below measures the replay alone.
	c1Quiesce(fed)
	relay0 = c1RelayDelivered(fed)
	inv0 := late.Sub.WireStats().Invocations
	wb, err := cl.WhiteboardSince(ctx, 0)
	if err != nil {
		return res, err
	}
	info, err := cl.CollabInfo(ctx)
	if err != nil {
		return res, err
	}
	lateInv := late.Sub.WireStats().Invocations - inv0
	hostHash := fmt.Sprintf("%016x", c1Group(host, appID).LogHash())
	snap.LatecomerStrokes = len(wb.Strokes)
	snap.LatecomerMissed = wb.Missed
	snap.LatecomerInvocations = lateInv
	res.Rows = append(res.Rows, Row{
		Name:  "latecomer whiteboard replay from the local replica",
		Paper: "latecomers replay history without host catch-up: zero invocations, nothing missed",
		Measured: fmt.Sprintf("%d/%d strokes, %d missed, %d invocations during replay, host relays idle: %v, resource hash matches host: %v",
			len(wb.Strokes), strokes, wb.Missed, lateInv,
			c1RelayDelivered(fed) == relay0, info.Log.Hash == hostHash),
		Pass: len(wb.Strokes) == strokes && wb.Missed == 0 && lateInv == 0 &&
			c1RelayDelivered(fed) == relay0 && info.Log.Hash == hostHash,
	})

	// The latecomer's join is itself a replicated op: one final settle,
	// then record the federation-wide fingerprint.
	if _, ok := c1RoundsUntil(fed, settleCap, func() bool { return c1Converged(fed.Domains, appID) }); ok {
		fin := c1Group(host, appID).LogInfo()
		snap.FinalOps = fin.Ops
		snap.FinalHash = fmt.Sprintf("%016x", fin.Hash)
	}

	c1mu.Lock()
	c1last = &snap
	c1mu.Unlock()
	return res, nil
}

// c1Group resolves the domain's replica of the app's group (creating it
// is fine: every domain in C1 has members).
func c1Group(d *Domain, appID string) *collab.Group { return d.Srv.Hub().Group(appID) }

// c1Round drives one lockstep anti-entropy round: every domain syncs its
// subscribed collaboration logs against the host, concurrently.
func c1Round(fed *Federation) {
	var wg sync.WaitGroup
	for _, d := range fed.Domains {
		wg.Add(1)
		go func(d *Domain) {
			defer wg.Done()
			d.Sub.CollabSyncNow()
		}(d)
	}
	wg.Wait()
}

// c1RoundsUntil drives sync rounds until pred holds, up to cap.
func c1RoundsUntil(fed *Federation, maxRounds int, pred func() bool) (int, bool) {
	if pred() {
		return 0, true
	}
	for i := 1; i <= maxRounds; i++ {
		c1Round(fed)
		if pred() {
			return i, true
		}
	}
	return maxRounds, false
}

// c1Converged reports whether every domain's replica has the same root
// hash (the order-independent fingerprint over all applied ops).
func c1Converged(domains []*Domain, appID string) bool {
	want := c1Group(domains[0], appID).LogHash()
	for _, d := range domains[1:] {
		if c1Group(d, appID).LogHash() != want {
			return false
		}
	}
	return true
}

// c1ByteIdentical is the strong form: materialized state and membership
// fold compare byte-for-byte across every domain.
func c1ByteIdentical(domains []*Domain, appID string) bool {
	want := c1Group(domains[0], appID).Materialized()
	wantMembers := len(c1Group(domains[0], appID).ConvergedMembers())
	for _, d := range domains[1:] {
		g := c1Group(d, appID)
		if !bytes.Equal(g.Materialized(), want) || len(g.ConvergedMembers()) != wantMembers {
			return false
		}
	}
	return true
}

// c1RelayDelivered sums messages the host-side relays pushed across the
// WAN, federation-wide.
func c1RelayDelivered(fed *Federation) uint64 {
	var total uint64
	for _, d := range fed.Domains {
		for _, rs := range d.Sub.RelayStats() {
			total += rs.Delivered
		}
	}
	return total
}

// c1Quiesce waits until the relay queues drain and the delivered count
// stops moving, so a measurement window starts from silence.
func c1Quiesce(fed *Federation) {
	last := c1RelayDelivered(fed)
	for stable := 0; stable < 5; {
		time.Sleep(20 * time.Millisecond)
		if cur := c1RelayDelivered(fed); cur == last {
			stable++
		} else {
			last, stable = cur, 0
		}
	}
}

// c1WaitFor polls pred until it holds or the (race-scaled) deadline
// passes.
func c1WaitFor(d time.Duration, pred func() bool) bool {
	deadline := time.Now().Add(d * raceTimeoutScale)
	for time.Now().Before(deadline) {
		if pred() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// C1Snapshot is the compact BENCH_C1.json record of the last RunC1.
type C1Snapshot struct {
	Clients              int     `json:"clients"`
	Domains              int     `json:"domains"`
	BroadcastMsgs        int     `json:"broadcastMsgs"`
	WanCrossings         uint64  `json:"wanCrossings"`
	CrossingsPerMsg      float64 `json:"crossingsPerMsg"`
	NaivePerMsg          int     `json:"naivePerMsg"`
	ChurnEvents          int     `json:"churnEvents"`
	ChurnRounds          int     `json:"churnRounds"`
	PartitionDiverged    bool    `json:"partitionDiverged"`
	HealRounds           int     `json:"healRounds"`
	LatecomerStrokes     int     `json:"latecomerStrokes"`
	LatecomerMissed      int     `json:"latecomerMissed"`
	LatecomerInvocations uint64  `json:"latecomerInvocations"`
	FinalOps             int     `json:"finalOps"`
	FinalHash            string  `json:"finalHash"`
}

var (
	c1mu   sync.Mutex
	c1last *C1Snapshot
)

// C1LastSnapshot returns the compact record of the most recent RunC1 in
// this process (cmd/benchharness writes it to BENCH_C1.json).
func C1LastSnapshot() (C1Snapshot, bool) {
	c1mu.Lock()
	defer c1mu.Unlock()
	if c1last == nil {
		return C1Snapshot{}, false
	}
	return *c1last, true
}
