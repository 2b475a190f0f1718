package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"discover/internal/server"
	"discover/internal/telemetry"
)

// DefaultDirCacheTTL is the directory cache's freshness window
// (Substrate.SetDirCacheTTL varies it). Coherence does not ride on the
// TTL alone: app-registered/app-closed control events and peer health
// transitions invalidate eagerly, so the TTL only bounds staleness when
// an event is lost on the wire.
const DefaultDirCacheTTL = 2 * time.Second

// dirKey identifies one cached listing: what one user may see at one
// peer. Listings are per-user because the peer filters by its ACLs.
type dirKey struct{ peer, user string }

// dirEntry is one (peer, user) listing in the cache. An entry moves
// through three states (DESIGN §4f):
//
//   - fresh: fetched within the TTL — served directly, zero ORB work.
//   - stale-revalidating: past the TTL (or event-invalidated) — the data
//     is still the last good listing; an expired-but-present entry is
//     served immediately while one flight refetches, an invalidated one
//     forces a synchronous refetch.
//   - unavailable: the peer's breaker is open — the last good listing is
//     served with every application marked Unavailable (the PR-2
//     degraded mode, folded into this cache).
type dirEntry struct {
	apps    []server.AppInfo // last good listing; never mutated in place
	fetched time.Time        // zero: invalidated or never fetched
	jitter  float64          // per-entry TTL multiplier in [0.9, 1.1]
	flight  chan struct{}    // non-nil while a fetch is in flight; closed on completion
	lastErr error            // outcome of the last completed fetch
}

// ttlJitter draws a fresh TTL multiplier for one entry. A flash crowd of
// listings cached within the same burst would otherwise expire in
// lockstep and thundering-herd the fan-out engine with simultaneous
// revalidations; ±10% spreads the expiries out.
func ttlJitter() float64 { return 0.9 + 0.2*rand.Float64() }

// effectiveTTL applies an entry's jitter multiplier to the configured
// freshness window.
func effectiveTTL(ttl time.Duration, jitter float64) time.Duration {
	if jitter <= 0 {
		return ttl
	}
	return time.Duration(float64(ttl) * jitter)
}

// dirPlan is the cache's decision for one peer's slot in a listing round.
type dirPlan struct {
	state  dirState
	apps   []server.AppInfo // populated for fresh/stale/unavailable serves
	flight chan struct{}    // populated for fetch (to complete) and join (to wait on)
	lead   bool             // this caller owns the in-flight fetch
}

type dirState int

const (
	dirFresh       dirState = iota // cache hit: serve, no RPC
	dirStale                       // serve stale copy; leader revalidates in background
	dirUnavailable                 // breaker open: serve unavailable-marked copy
	dirFetch                       // miss, this caller fetches (single-flight leader)
	dirJoin                        // miss, another fetch is in flight: wait for it
)

// dirCounter pairs a substrate-local count (reported in GET /api/stats,
// which must start at zero for each substrate) with the process-wide
// /metrics series it feeds (labeled by server, cumulative across
// substrate generations as Prometheus counters are).
type dirCounter struct {
	local  atomic.Uint64
	metric *telemetry.Counter
}

func (c *dirCounter) add(n uint64)  { c.local.Add(n); c.metric.Add(n) }
func (c *dirCounter) inc()          { c.add(1) }
func (c *dirCounter) value() uint64 { return c.local.Load() }

// dirCache is the event-coherent directory cache: TTL freshness, eager
// invalidation from application-lifecycle events and health transitions,
// and single-flight miss deduplication so a thundering herd of portal
// refreshes costs one RPC per peer.
type dirCache struct {
	ttl atomic.Int64 // nanoseconds; < 0 disables freshness (every read refetches)

	mu      sync.Mutex
	entries map[dirKey]*dirEntry

	hits, staleServes, misses, coalesced, unavailableServes dirCounter
	eventInvalidations, healthInvalidations                 dirCounter
}

func newDirCache(serverName string, ttl time.Duration) *dirCache {
	c := &dirCache{entries: make(map[dirKey]*dirEntry)}
	for _, reg := range []struct {
		c    *dirCounter
		name string
	}{
		{&c.hits, "discover_dircache_hits_total"},
		{&c.staleServes, "discover_dircache_stale_serves_total"},
		{&c.misses, "discover_dircache_misses_total"},
		{&c.coalesced, "discover_dircache_coalesced_total"},
		{&c.unavailableServes, "discover_dircache_unavailable_serves_total"},
		{&c.eventInvalidations, "discover_dircache_event_invalidations_total"},
		{&c.healthInvalidations, "discover_dircache_health_invalidations_total"},
	} {
		reg.c.metric = telemetry.GetCounter(reg.name, "server", serverName)
	}
	if ttl == 0 {
		ttl = DefaultDirCacheTTL
	}
	c.ttl.Store(int64(ttl))
	return c
}

// setTTL adjusts the freshness window at runtime (experiments flip
// between cached and uncached listings on a live federation). d == 0
// restores the default; d < 0 disables freshness so every read refetches
// while entries still back the degraded unavailable serve.
func (c *dirCache) setTTL(d time.Duration) {
	if d == 0 {
		d = DefaultDirCacheTTL
	}
	c.ttl.Store(int64(d))
}

func copyApps(apps []server.AppInfo) []server.AppInfo {
	if apps == nil {
		return nil
	}
	return append([]server.AppInfo(nil), apps...)
}

// unavailableCopy marks every application of a cached listing
// Unavailable; nil in, nil out (a peer with no cached listing contributes
// nothing, not an empty allocation).
func unavailableCopy(apps []server.AppInfo) []server.AppInfo {
	if len(apps) == 0 {
		return nil
	}
	out := make([]server.AppInfo, len(apps))
	for i, a := range apps {
		a.Unavailable = true
		out[i] = a
	}
	return out
}

// plan decides how one peer's slot of a listing round is served. down is
// the peer's breaker state at snapshot time. The flight channel a leader
// receives MUST be resolved with complete(), or followers would wait out
// their full deadline.
func (c *dirCache) plan(peer, user string, down bool) (p dirPlan) {
	ttl := time.Duration(c.ttl.Load())
	k := dirKey{peer: peer, user: user}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[k]
	if down {
		p.state = dirUnavailable
		if e != nil {
			p.apps = unavailableCopy(e.apps)
		}
		c.unavailableServes.inc()
		return p
	}
	if e != nil && !e.fetched.IsZero() && ttl >= 0 {
		if time.Since(e.fetched) <= effectiveTTL(ttl, e.jitter) {
			p.state = dirFresh
			p.apps = copyApps(e.apps)
			c.hits.inc()
			return p
		}
		// Expired but present: serve-while-revalidate. The first caller
		// past the TTL becomes the revalidation leader.
		p.state = dirStale
		p.apps = copyApps(e.apps)
		c.staleServes.inc()
		if e.flight == nil {
			e.flight = make(chan struct{})
			p.flight = e.flight
			p.lead = true
		}
		return p
	}
	// Miss: no entry, invalidated, or caching disabled.
	if e == nil {
		e = &dirEntry{}
		c.entries[k] = e
	}
	c.misses.inc()
	if e.flight != nil {
		p.state = dirJoin
		p.flight = e.flight
		c.coalesced.inc()
		return p
	}
	e.flight = make(chan struct{})
	p.state = dirFetch
	p.flight = e.flight
	p.lead = true
	return p
}

// complete publishes a leader's fetch outcome and releases any waiting
// followers. On failure the entry keeps its last good data (degraded
// serving) but stays invalidated, so the next read retries.
func (c *dirCache) complete(peer, user string, apps []server.AppInfo, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[dirKey{peer: peer, user: user}]
	if e == nil {
		return // peer dropped mid-flight; dropPeer released the followers
	}
	if err == nil {
		e.apps = copyApps(apps)
		e.fetched = time.Now()
		e.jitter = ttlJitter()
	}
	e.lastErr = err
	if e.flight != nil {
		close(e.flight)
		e.flight = nil
	}
}

// resolve reads the post-flight outcome for a follower whose leader just
// completed: the fresh listing on success, the unavailable-marked
// fallback plus the leader's error otherwise.
func (c *dirCache) resolve(peer, user string) ([]server.AppInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[dirKey{peer: peer, user: user}]
	if e == nil {
		return nil, nil
	}
	if e.lastErr == nil && !e.fetched.IsZero() {
		return copyApps(e.apps), nil
	}
	return unavailableCopy(e.apps), e.lastErr
}

// invalidatePeer drops the freshness of every listing cached for a peer —
// an app-registered/app-closed event arrived from it (byEvent) or it just
// recovered from an outage, so anything cached predates the change. The
// data itself is retained as the degraded-mode fallback.
func (c *dirCache) invalidatePeer(peer string, byEvent bool) {
	var n uint64
	c.mu.Lock()
	for k, e := range c.entries {
		if k.peer == peer && !e.fetched.IsZero() {
			e.fetched = time.Time{}
			n++
		}
	}
	c.mu.Unlock()
	if n == 0 {
		return
	}
	if byEvent {
		c.eventInvalidations.add(n)
	} else {
		c.healthInvalidations.add(n)
	}
}

// dropPeer removes every listing cached for a peer that left the
// federation for good (lease lapsed past keep-through-miss). Open flights
// are released so no follower waits on a fetch that will never complete.
func (c *dirCache) dropPeer(peer string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.entries {
		if k.peer != peer {
			continue
		}
		if e.flight != nil {
			close(e.flight)
			e.flight = nil
		}
		delete(c.entries, k)
	}
}

// stats snapshots the cache counters for GET /api/stats.
func (c *dirCache) stats() server.DirectoryStats {
	c.mu.Lock()
	entries := len(c.entries)
	c.mu.Unlock()
	return server.DirectoryStats{
		Entries:             entries,
		Hits:                c.hits.value(),
		StaleServes:         c.staleServes.value(),
		Misses:              c.misses.value(),
		Coalesced:           c.coalesced.value(),
		UnavailableServes:   c.unavailableServes.value(),
		EventInvalidations:  c.eventInvalidations.value(),
		HealthInvalidations: c.healthInvalidations.value(),
	}
}
