package core

import (
	"errors"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"discover/internal/orb"
	"discover/internal/server"
	"discover/internal/wire"
)

// errDead is a peer-failure outcome (orb.IsPeerFailure).
var errDead = &orb.RemoteError{Code: orb.CodeComm, Msg: "connection refused"}

// allow reads a peer's gate the way the call paths do.
func allow(t *peerTable, name string) error {
	p, _ := t.get(name)
	return p.gate()
}

// stateOf returns a peer's derived state label, "" when it has no row.
func stateOf(t *peerTable, name string) string {
	for _, ph := range t.snapshot() {
		if ph.Peer == name {
			return ph.State
		}
	}
	return ""
}

func TestPeerTableBreakerLifecycle(t *testing.T) {
	var downs, recoveries []string
	pt := newPeerTable()
	pt.onDown = func(name, addr string) { downs = append(downs, name) }
	pt.onRecovered = func(name, addr string) { recoveries = append(recoveries, name) }

	if err := allow(pt, "p"); err != nil {
		t.Fatalf("unknown peer blocked: %v", err)
	}
	pt.round(map[string]string{"p": "addr:1"})

	// One failure: suspect, still allowed.
	pt.observe("p", errDead, 0)
	if st := stateOf(pt, "p"); st != "suspect" {
		t.Fatalf("state after 1 failure = %v", st)
	}
	if err := allow(pt, "p"); err != nil {
		t.Fatalf("suspect peer blocked: %v", err)
	}

	// A success while suspect clears suspicion.
	pt.observe("p", nil, 0)
	if st := stateOf(pt, "p"); st != "healthy" {
		t.Fatalf("state after recovery success = %v", st)
	}

	// Three consecutive failures open the gate and fire onDown once.
	for i := 0; i < DefaultDownAfter; i++ {
		pt.observe("p", errDead, 0)
	}
	if st := stateOf(pt, "p"); st != "down" {
		t.Fatalf("state after 3 failures = %v", st)
	}
	if len(downs) != 1 || downs[0] != "p" {
		t.Fatalf("onDown calls = %v", downs)
	}
	if err := allow(pt, "p"); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("down peer allow = %v", err)
	}
	// Further failures while down don't re-fire onDown.
	pt.observe("p", errDead, 0)
	if len(downs) != 1 {
		t.Fatalf("onDown re-fired: %v", downs)
	}
	// A stray success does NOT close an open gate — only probes do.
	pt.observe("p", nil, 0)
	if st := stateOf(pt, "p"); st != "down" {
		t.Fatalf("success closed open gate: %v", st)
	}

	// Probe lifecycle: down -> probing (still ErrPeerDown) -> a failed
	// probe returns to down.
	if recovery, ok := pt.beginProbe("p"); !ok || !recovery {
		t.Fatalf("beginProbe on a down peer = recovery %v, ok %v", recovery, ok)
	}
	if _, ok := pt.beginProbe("p"); ok {
		t.Fatal("duplicate probe began")
	}
	if st := stateOf(pt, "p"); st != "probing" {
		t.Fatalf("state during probe = %v", st)
	}
	if err := allow(pt, "p"); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("probing peer allow = %v", err)
	}
	pt.finishProbe("p", errDead, 0)
	if st := stateOf(pt, "p"); st != "down" {
		t.Fatalf("state after failed probe = %v", st)
	}
	if len(recoveries) != 0 {
		t.Fatalf("failed probe fired onRecovered: %v", recoveries)
	}

	// A successful probe closes the gate, wakes parked senders, fires
	// onRecovered.
	ch := pt.blockedCh("p")
	if ch == nil {
		t.Fatal("no blocked channel for a down peer")
	}
	if _, ok := pt.beginProbe("p"); !ok {
		t.Fatal("second beginProbe refused")
	}
	pt.finishProbe("p", nil, time.Millisecond)
	select {
	case <-ch:
	default:
		t.Fatal("recovered channel not closed")
	}
	if st := stateOf(pt, "p"); st != "healthy" {
		t.Fatalf("state after successful probe = %v", st)
	}
	if len(recoveries) != 1 || recoveries[0] != "p" {
		t.Fatalf("onRecovered calls = %v", recoveries)
	}
	if err := allow(pt, "p"); err != nil {
		t.Fatalf("recovered peer blocked: %v", err)
	}
	if pt.blockedCh("p") != nil {
		t.Fatal("recovered peer still has a blocked channel")
	}

	snap := pt.snapshot()
	if len(snap) != 1 || snap[0].BreakerOpens != 1 || snap[0].BreakerCloses != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestPeerTableKeepThroughMiss(t *testing.T) {
	pt := newPeerTable()
	pt.round(map[string]string{"p": "addr:1"})

	// First missed round: kept, marked suspect.
	if _, dropped := pt.round(nil); len(dropped) != 0 {
		t.Fatalf("healthy peer dropped on first missed round: %v", dropped)
	}
	if st := stateOf(pt, "p"); st != "suspect" {
		t.Fatalf("state after one miss = %v", st)
	}
	// Second consecutive miss: dropped.
	if _, dropped := pt.round(nil); !reflect.DeepEqual(dropped, []string{"p"}) {
		t.Fatalf("second missed round dropped %v, want [p]", dropped)
	}

	// Reappearing in discovery resets the miss counter.
	pt.round(map[string]string{"q": "addr:2"})
	if _, dropped := pt.round(nil); len(dropped) != 0 {
		t.Fatal("q dropped on first miss")
	}
	if fresh, _ := pt.round(map[string]string{"q": "addr:2"}); len(fresh) != 0 {
		t.Fatalf("a known peer came back as fresh: %v", fresh)
	}
	if _, dropped := pt.round(nil); len(dropped) != 0 {
		t.Fatal("q dropped after the miss counter was reset")
	}

	// A peer whose gate is open is never kept.
	pt.round(map[string]string{"r": "addr:3"})
	for i := 0; i < DefaultDownAfter; i++ {
		pt.observe("r", errDead, 0)
	}
	ch := pt.blockedCh("r")
	if _, dropped := pt.round(nil); !reflect.DeepEqual(dropped, []string{"r"}) {
		t.Fatalf("missed round with r down dropped %v, want [r]", dropped)
	}
	select {
	case <-ch:
	default:
		t.Fatal("dropping a down peer did not close its recovered channel")
	}

	// Unknown peers get no row: outcomes for them are ignored.
	pt.observe("stranger", errDead, 0)
	pt.observe("stranger", nil, time.Millisecond)
	if st := stateOf(pt, "stranger"); st != "" {
		t.Fatalf("unknown peer got a row in state %q", st)
	}
}

func TestPeerTableHeartbeatRTT(t *testing.T) {
	pt := newPeerTable()
	pt.round(map[string]string{"p": "addr:1"})
	pt.observe("p", nil, 1500*time.Microsecond)
	snap := pt.snapshot()
	if len(snap) != 1 || snap[0].HeartbeatRTTMicros != 1500 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap[0].State != "healthy" {
		t.Fatalf("state = %s", snap[0].State)
	}
}

// TestPeerHealthNamesEqualPeers pins the one-table invariant: whatever
// discovery rounds, stray relay failures and drops happen, the stats rows
// name exactly the discovered peers.
func TestPeerHealthNamesEqualPeers(t *testing.T) {
	n := newTestNet(t)
	a := n.addDomain("rutgers")
	n.addDomain("caltech")
	c := n.addDomain("utexas")
	n.discoverAll()

	same := func(when string) {
		t.Helper()
		var health []string
		for _, ph := range a.sub.PeerHealth() {
			health = append(health, ph.Peer)
		}
		peers := a.sub.Peers()
		sort.Strings(peers)
		if !reflect.DeepEqual(health, peers) {
			t.Fatalf("%s: PeerHealth names %v, Peers %v", when, health, peers)
		}
	}
	same("after discovery")

	// A relay sender to a peer discovery never offered fails its pushes.
	r := newRelaySender(a.sub, peerInfo{name: "ghost", addr: "127.0.0.1:1"})
	defer r.close()
	// The second failure proves the first was reported.
	for i := uint64(1); i <= 2; i++ {
		r.deliverFunc("wave")(wire.NewUpdate("wave", i))
		waitFor(t, 5*time.Second, func() bool { return r.failures.Load() >= i })
	}
	same("after relay failures for an undiscovered peer")

	// utexas withdraws its offer: kept through one miss, then dropped.
	c.sub.Close()
	if err := a.sub.DiscoverPeers(); err != nil {
		t.Fatal(err)
	}
	same("after one missed round")
	if err := a.sub.DiscoverPeers(); err != nil {
		t.Fatal(err)
	}
	same("after the drop")
	if got := a.sub.Peers(); len(got) != 1 || got[0] != "caltech" {
		t.Fatalf("peers after utexas withdrew = %v", got)
	}
}

// fakePeer is an ORB that answers a substrate's ping and deliver calls
// and counts them. With a non-nil hold, pings block until it closes.
type fakePeer struct {
	orb       *orb.ORB
	pings     atomic.Int64
	delivered atomic.Int64
	hold      chan struct{}
}

func newFakePeer(t *testing.T, hold chan struct{}) *fakePeer {
	t.Helper()
	fp := &fakePeer{orb: orb.New(), hold: hold}
	if err := fp.orb.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fp.orb.Close() })
	fp.orb.Register(ServerKey, orb.MethodMap{
		"ping": orb.Handler(func(pingReq) (pingResp, error) {
			fp.pings.Add(1)
			if fp.hold != nil {
				<-fp.hold
			}
			return pingResp{Name: "fake"}, nil
		}),
	})
	fp.orb.Register(ControlKey, orb.MethodMap{
		"deliver": orb.Handler(func(deliverReq) (eventResp, error) {
			fp.delivered.Add(1)
			return eventResp{}, nil
		}),
	})
	return fp
}

// newBareSubstrate builds a substrate with no trader and no background
// loops, so a test alone decides what enters its peer table and when
// heartbeats run.
func newBareSubstrate(t *testing.T) *Substrate {
	t.Helper()
	srv, err := server.New(server.Config{Name: "home", Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	o := orb.New()
	if err := o.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { o.Close() })
	s, err := New(Config{Server: srv, ORB: o, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// downPeer enters fp into s's peer table as "fake" and opens its gate.
func downPeer(s *Substrate, fp *fakePeer) {
	s.peers.round(map[string]string{"fake": fp.orb.Addr()})
	for i := 0; i < DefaultDownAfter; i++ {
		s.peers.observe("fake", errDead, 0)
	}
}

// TestConcurrentRoundsProbeOnce checks probe dedup end to end: two
// heartbeat rounds racing over one down peer send a single recovery ping.
func TestConcurrentRoundsProbeOnce(t *testing.T) {
	s := newBareSubstrate(t)
	hold := make(chan struct{})
	fp := newFakePeer(t, hold)
	downPeer(s, fp)

	done := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.CheckPeersNow()
			done <- struct{}{}
		}()
	}
	// One round's probe is parked in the held ping; the other round must
	// finish without sending its own.
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("neither round returned while a probe was in flight")
	}
	close(hold)
	wg.Wait()
	if got := fp.pings.Load(); got != 1 {
		t.Fatalf("pings = %d, want 1", got)
	}
	if st := stateOf(s.peers, "fake"); st != "healthy" {
		t.Fatalf("state after the probe = %q, want healthy", st)
	}
}

// TestDiscoveryDropWakesParkedRelay checks that a relay sender parked on
// a down peer is released when discovery drops that peer, instead of
// waiting for a recovery that can no longer come.
func TestDiscoveryDropWakesParkedRelay(t *testing.T) {
	s := newBareSubstrate(t)
	fp := newFakePeer(t, nil)
	downPeer(s, fp)

	r := newRelaySender(s, peerInfo{name: "fake", addr: fp.orb.Addr()})
	t.Cleanup(r.close) // runs before the substrate's Close waits on it
	r.deliverFunc("wave")(wire.NewUpdate("wave", 1))
	// Once the sender has taken the message it can only park: the gate
	// is open, so nothing goes out until the drop.
	waitFor(t, 5*time.Second, func() bool { return len(r.queue) == 0 })
	if got := r.invocations.Load(); got != 0 {
		t.Fatalf("parked sender issued %d invocations", got)
	}

	if _, dropped := s.peers.round(nil); !reflect.DeepEqual(dropped, []string{"fake"}) {
		t.Fatalf("round dropped %v, want [fake]", dropped)
	}
	waitFor(t, 5*time.Second, func() bool { return fp.delivered.Load() == 1 })
}
