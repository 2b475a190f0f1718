package core

import (
	"errors"
	"testing"
	"time"

	"discover/internal/server"
)

// TestDirCacheTTLJitterSpread checks that per-entry TTL jitter actually
// spreads expiry: every multiplier stays inside ±10%, and a population of
// entries does not share one effective TTL (which would make a flash
// crowd of cached listings expire in lockstep).
func TestDirCacheTTLJitterSpread(t *testing.T) {
	const n = 500
	min, max := 2.0, 0.0
	for i := 0; i < n; i++ {
		j := ttlJitter()
		if j < 0.9 || j > 1.1 {
			t.Fatalf("jitter %v outside [0.9, 1.1]", j)
		}
		if j < min {
			min = j
		}
		if j > max {
			max = j
		}
	}
	// With 500 uniform draws over a 0.2-wide window, a spread this small
	// means the draw is not actually random.
	if max-min < 0.1 {
		t.Fatalf("jitter spread %v too narrow (min %v, max %v)", max-min, min, max)
	}

	// The multiplier must reach the freshness check: entries completed at
	// the same instant get distinct effective TTLs.
	c := newDirCache("jitter-test", time.Hour)
	ttls := make(map[time.Duration]bool)
	for _, peer := range []string{"p1", "p2", "p3", "p4", "p5", "p6", "p7", "p8"} {
		p := c.plan(peer, "alice", false)
		if p.state != dirFetch || !p.lead {
			t.Fatalf("first plan for %s: state %v, lead %v", peer, p.state, p.lead)
		}
		c.complete(peer, "alice", []server.AppInfo{{ID: peer + "#1"}}, nil)
		e := c.entries[dirKey{peer: peer, user: "alice"}]
		if e.jitter < 0.9 || e.jitter > 1.1 {
			t.Fatalf("entry jitter %v outside [0.9, 1.1]", e.jitter)
		}
		ttls[effectiveTTL(time.Hour, e.jitter)] = true
	}
	if len(ttls) < 2 {
		t.Fatalf("all %d entries share one effective TTL; expiry is in lockstep", len(ttls))
	}
}

// TestDirCacheInvalidate: an event invalidation drops freshness for
// every listing cached for the peer — across users — while keeping the
// data as the degraded-mode fallback, and it counts under its own reason
// only.
func TestDirCacheInvalidate(t *testing.T) {
	c := newDirCache("invalidate-test", time.Hour)
	for _, k := range []dirKey{{"p1", "alice"}, {"p1", "bob"}, {"p2", "alice"}} {
		p := c.plan(k.peer, k.user, false)
		if p.state != dirFetch {
			t.Fatalf("first plan for %v: state %v", k, p.state)
		}
		c.complete(k.peer, k.user, []server.AppInfo{{ID: k.peer + "#1"}}, nil)
	}

	c.invalidatePeer("p1", true)

	// Both of p1's user listings are stale now; p2's stays fresh.
	if p := c.plan("p1", "alice", false); p.state != dirFetch {
		t.Fatalf("p1/alice after invalidatePeer: state %v, want fetch", p.state)
	}
	if p := c.plan("p1", "bob", false); p.state != dirFetch {
		t.Fatalf("p1/bob after invalidatePeer: state %v, want fetch", p.state)
	}
	if p := c.plan("p2", "alice", false); p.state != dirFresh {
		t.Fatalf("p2/alice after invalidatePeer(p1): state %v, want fresh", p.state)
	}

	// The data survives as the degraded fallback: a breaker-open serve
	// still returns the listing, marked Unavailable.
	if p := c.plan("p1", "alice", true); p.state != dirUnavailable ||
		len(p.apps) != 1 || !p.apps[0].Unavailable {
		t.Fatalf("invalidated entry lost its degraded fallback: %+v", p)
	}

	st := c.stats()
	if st.EventInvalidations != 2 {
		t.Fatalf("EventInvalidations = %d, want 2", st.EventInvalidations)
	}
	if st.HealthInvalidations != 0 {
		t.Fatalf("event invalidation leaked into the health reason: %+v", st)
	}

	// Invalidating an already-invalid peer (or an unknown one) is a no-op
	// that does not inflate the counter.
	c.invalidatePeer("p1", true)
	c.invalidatePeer("nobody", true)
	if got := c.stats().EventInvalidations; got != 2 {
		t.Fatalf("no-op invalidatePeer moved the counter to %d", got)
	}
}

// TestDirCacheJitterNeverWidensPastBound: the effective TTL stays within
// ±10% of the configured window, so jitter cannot stretch staleness
// beyond what DESIGN §4f promises.
func TestDirCacheJitterNeverWidensPastBound(t *testing.T) {
	base := 2 * time.Second
	for i := 0; i < 200; i++ {
		got := effectiveTTL(base, ttlJitter())
		if got < time.Duration(float64(base)*0.9) || got > time.Duration(float64(base)*1.1) {
			t.Fatalf("effective TTL %v outside ±10%% of %v", got, base)
		}
	}
	if effectiveTTL(base, 0) != base {
		t.Fatalf("zero jitter (unfetched entry) must fall back to the configured TTL")
	}
}

// TestDirCacheSingleFlightAndStates walks one cache entry through every
// state deterministically: single-flight miss dedup, fresh hit,
// unavailable-marked serve, event invalidation forcing a refetch, failed
// fetch degrading to the last good listing, and stale
// serve-while-revalidate past the TTL.
func TestDirCacheSingleFlightAndStates(t *testing.T) {
	c := newDirCache("unit", 50*time.Millisecond)
	apps := []server.AppInfo{{ID: "unit#1"}}

	// Miss: the first caller leads the flight, the second joins it.
	p1 := c.plan("peer", "alice", false)
	if p1.state != dirFetch || !p1.lead {
		t.Fatalf("first plan = %+v, want fetch leader", p1)
	}
	p2 := c.plan("peer", "alice", false)
	if p2.state != dirJoin || p2.lead {
		t.Fatalf("second plan = %+v, want join follower", p2)
	}
	resolved := make(chan []server.AppInfo, 1)
	go func() {
		<-p2.flight
		got, err := c.resolve("peer", "alice")
		if err != nil {
			t.Errorf("follower resolve: %v", err)
		}
		resolved <- got
	}()
	c.complete("peer", "alice", apps, nil)
	if got := <-resolved; len(got) != 1 || got[0].ID != "unit#1" {
		t.Fatalf("follower resolved %+v", got)
	}

	// Fresh hit within the TTL.
	if p := c.plan("peer", "alice", false); p.state != dirFresh || len(p.apps) != 1 {
		t.Fatalf("fresh plan = %+v", p)
	}
	// Breaker open: the same data, every application marked unavailable.
	if p := c.plan("peer", "alice", true); p.state != dirUnavailable || !p.apps[0].Unavailable {
		t.Fatalf("down plan = %+v", p)
	}
	// An event invalidation forces a synchronous coherent refetch.
	c.invalidatePeer("peer", true)
	p3 := c.plan("peer", "alice", false)
	if p3.state != dirFetch || !p3.lead {
		t.Fatalf("post-invalidation plan = %+v, want fetch leader", p3)
	}
	// A failed refetch keeps the old data as the degraded fallback.
	c.complete("peer", "alice", nil, errors.New("boom"))
	if got, err := c.resolve("peer", "alice"); err == nil || len(got) != 1 || !got[0].Unavailable {
		t.Fatalf("failed-fetch resolve = %+v, %v", got, err)
	}
	st := c.stats()
	if st.Hits != 1 || st.Misses != 3 || st.Coalesced != 1 ||
		st.UnavailableServes != 1 || st.EventInvalidations != 1 {
		t.Errorf("stats = %+v", st)
	}

	// Past the TTL an entry is served stale while one leader revalidates.
	c.complete("peer", "alice", apps, nil)
	time.Sleep(60 * time.Millisecond)
	p4 := c.plan("peer", "alice", false)
	if p4.state != dirStale || !p4.lead || len(p4.apps) != 1 {
		t.Fatalf("expired plan = %+v, want stale leader", p4)
	}
	if p := c.plan("peer", "alice", false); p.state != dirStale || p.lead {
		t.Fatalf("second expired plan = %+v, want stale non-leader", p)
	}
	c.complete("peer", "alice", apps, nil)
	if p := c.plan("peer", "alice", false); p.state != dirFresh {
		t.Fatalf("revalidated plan = %+v, want fresh", p)
	}
}
