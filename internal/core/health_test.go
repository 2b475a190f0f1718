package core

import (
	"errors"
	"testing"
	"time"
)

func TestHealthTableBreakerLifecycle(t *testing.T) {
	var downs, recoveries []string
	h := newHealthTable(3)
	h.onDown = func(name, addr string) { downs = append(downs, name) }
	h.onRecovered = func(name, addr string) { recoveries = append(recoveries, name) }

	if err := h.allow("p"); err != nil {
		t.Fatalf("unknown peer blocked: %v", err)
	}
	boom := errors.New("connection refused")

	// One failure: suspect, still allowed.
	h.reportFailure("p", "addr:1", boom)
	if st := h.state("p"); st != PeerSuspect {
		t.Fatalf("state after 1 failure = %v", st)
	}
	if err := h.allow("p"); err != nil {
		t.Fatalf("suspect peer blocked: %v", err)
	}

	// A success while suspect clears suspicion.
	h.reportSuccess("p", "addr:1")
	if st := h.state("p"); st != PeerHealthy {
		t.Fatalf("state after recovery success = %v", st)
	}

	// Three consecutive failures open the breaker and fire onDown once.
	for i := 0; i < 3; i++ {
		h.reportFailure("p", "addr:1", boom)
	}
	if st := h.state("p"); st != PeerDown {
		t.Fatalf("state after 3 failures = %v", st)
	}
	if len(downs) != 1 || downs[0] != "p" {
		t.Fatalf("onDown calls = %v", downs)
	}
	if err := h.allow("p"); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("down peer allow = %v", err)
	}
	// Further failures while down don't re-fire onDown.
	h.reportFailure("p", "addr:1", boom)
	if len(downs) != 1 {
		t.Fatalf("onDown re-fired: %v", downs)
	}
	// A stray success does NOT close an open breaker — only probes do.
	h.reportSuccess("p", "addr:1")
	if st := h.state("p"); st != PeerDown {
		t.Fatalf("success closed open breaker: %v", st)
	}

	// Probe lifecycle: down -> probing (blocked with ErrPeerSuspect) ->
	// failed probe returns to down.
	if !h.beginProbe("p") {
		t.Fatal("beginProbe refused a down peer")
	}
	if h.beginProbe("p") {
		t.Fatal("duplicate probe began")
	}
	if err := h.allow("p"); !errors.Is(err, ErrPeerSuspect) {
		t.Fatalf("probing peer allow = %v", err)
	}
	h.finishProbe("p", false, boom)
	if st := h.state("p"); st != PeerDown {
		t.Fatalf("state after failed probe = %v", st)
	}
	if len(recoveries) != 0 {
		t.Fatalf("failed probe fired onRecovered: %v", recoveries)
	}

	// Successful probe closes the breaker, wakes parked senders, fires
	// onRecovered.
	ch := h.blockedCh("p")
	if ch == nil {
		t.Fatal("no blocked channel for a down peer")
	}
	if !h.beginProbe("p") {
		t.Fatal("second beginProbe refused")
	}
	h.finishProbe("p", true, nil)
	select {
	case <-ch:
	default:
		t.Fatal("recovered channel not closed")
	}
	if st := h.state("p"); st != PeerHealthy {
		t.Fatalf("state after successful probe = %v", st)
	}
	if len(recoveries) != 1 || recoveries[0] != "p" {
		t.Fatalf("onRecovered calls = %v", recoveries)
	}
	if err := h.allow("p"); err != nil {
		t.Fatalf("recovered peer blocked: %v", err)
	}

	snap := h.snapshot()
	if len(snap) != 1 || snap[0].BreakerOpens != 1 || snap[0].BreakerCloses != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestHealthTableKeepThroughMiss(t *testing.T) {
	h := newHealthTable(3)
	h.discoverySeen("p", "addr:1")

	// First missed round: kept, marked suspect.
	if !h.keepThroughMiss("p") {
		t.Fatal("healthy peer dropped on first missed round")
	}
	if st := h.state("p"); st != PeerSuspect {
		t.Fatalf("state after one miss = %v", st)
	}
	// Second consecutive miss: dropped.
	if h.keepThroughMiss("p") {
		t.Fatal("peer kept through second missed round")
	}

	// Reappearing in discovery resets the miss counter.
	h.discoverySeen("q", "addr:2")
	if !h.keepThroughMiss("q") {
		t.Fatal("q dropped on first miss")
	}
	h.discoverySeen("q", "addr:2")
	if !h.keepThroughMiss("q") {
		t.Fatal("q dropped after the miss counter was reset")
	}

	// A peer the breaker already declared down is never kept.
	h.discoverySeen("r", "addr:3")
	for i := 0; i < 3; i++ {
		h.reportFailure("r", "addr:3", errors.New("x"))
	}
	if h.keepThroughMiss("r") {
		t.Fatal("down peer kept through a missed round")
	}

	// Unknown peers aren't kept.
	if h.keepThroughMiss("stranger") {
		t.Fatal("unknown peer kept")
	}
}

func TestHealthTableHeartbeatRTT(t *testing.T) {
	h := newHealthTable(3)
	h.heartbeatOK("p", "addr:1", 1500*time.Microsecond)
	snap := h.snapshot()
	if len(snap) != 1 || snap[0].HeartbeatRTTMicros != 1500 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap[0].State != "healthy" {
		t.Fatalf("state = %s", snap[0].State)
	}
}
