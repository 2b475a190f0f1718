package experiments

import (
	"context"
	"fmt"
	"time"

	"discover/internal/appproto"
	"discover/internal/core"
	"discover/internal/netsim"
	"discover/internal/server"
)

// RunP1 is the directory fan-out experiment: how does a federation-wide
// application listing scale with the number of peer domains?
//
// A portal domain federates with N peer domains, each one WAN hop (rtt)
// away and hosting one application. The listing is measured three ways:
//
//   - sequential (FanoutWorkers=1, cache off): every peer is asked in
//     turn, so latency grows as Σ(RTT) — the pre-fan-out baseline.
//   - parallel (default workers, cache off): the scatter-gather engine
//     asks every peer concurrently, so latency stays ~max(RTT) and is
//     roughly flat as N grows.
//   - cached (default TTL): steady-state listings are served from the
//     event-coherent directory cache with zero ORB invocations.
//
// Coherence and degradation ride along: registering an application at a
// peer must show up in the portal's listing via event invalidation well
// inside the TTL, and partitioning a peer must leave the listing fast and
// bounded, with that peer's applications marked unavailable (never a
// hang), recovering after heal.
//
// sizes must be ascending; the largest federation also runs the cache,
// coherence, and partition measurements.
func RunP1(sizes []int, rtt time.Duration) (Result, error) {
	if rtt <= 0 {
		rtt = 20 * time.Millisecond
	}
	if len(sizes) < 2 {
		sizes = []int{2, 8}
	}
	res := Result{ID: "P1", Title: "Directory fan-out: listing latency vs federation size"}

	const trials = 5
	seqMed := make(map[int]time.Duration)
	parMed := make(map[int]time.Duration)

	var big *p1Fed // the largest federation, kept for rows 3-5
	for i, n := range sizes {
		f, err := deployP1(n, rtt)
		if err != nil {
			return res, err
		}
		seq, par, err := f.measureUncached(trials, n)
		if err != nil {
			f.close()
			return res, err
		}
		seqMed[n], parMed[n] = seq, par
		if i == len(sizes)-1 {
			big = f
		} else {
			f.close()
		}
	}
	defer big.close()
	minN, maxN := sizes[0], sizes[len(sizes)-1]

	fmtSizes := func(m map[int]time.Duration) string {
		s := ""
		for _, n := range sizes {
			s += fmt.Sprintf(" N=%d: %s", n, m[n].Round(time.Millisecond))
		}
		return s[1:]
	}
	res.Rows = append(res.Rows, Row{
		Name:  "parallel listing latency vs peer count",
		Paper: "a global directory query should cost ~max per-peer RTT, not Σ(RTT)",
		Measured: fmt.Sprintf("%s (RTT %s, workers default)",
			fmtSizes(parMed), rtt.Round(time.Millisecond)),
		Pass: parMed[maxN] < 3*rtt && parMed[maxN] <= 2*parMed[minN]+rtt,
	})

	ratio := float64(seqMed[maxN]) / float64(parMed[maxN])
	res.Rows = append(res.Rows, Row{
		Name:  fmt.Sprintf("sequential vs parallel at %d peers", maxN),
		Paper: "scatter-gather beats one-peer-at-a-time by ~N at WAN latencies",
		Measured: fmt.Sprintf("sequential %s (%s) vs parallel %s — %.1fx",
			seqMed[maxN].Round(time.Millisecond), fmtSizes(seqMed),
			parMed[maxN].Round(time.Millisecond), ratio),
		Pass: ratio >= float64(maxN)/2,
	})

	// --- Cached steady state: zero ORB invocations. ---
	portal := big.portal.Sub
	portal.SetDirCacheTTL(0) // restore the default freshness window
	if _, err := big.listMedian(1, maxN); err != nil {
		return res, err // warm every entry
	}
	inv0 := portal.WireStats().Invocations
	dir0 := portal.DirectoryStats()
	const cachedTrials = 20
	cachedMed, err := big.listMedian(cachedTrials, maxN)
	if err != nil {
		return res, err
	}
	invDelta := portal.WireStats().Invocations - inv0
	hitsDelta := portal.DirectoryStats().Hits - dir0.Hits
	res.Rows = append(res.Rows, Row{
		Name:  "cached listing cost",
		Paper: "steady-state listings are answered from the directory cache: 0 ORB invocations",
		Measured: fmt.Sprintf("%d listings: median %s, %d invocations, %d cache hits",
			cachedTrials, cachedMed.Round(time.Microsecond), invDelta, hitsDelta),
		Pass: invDelta == 0 && hitsDelta >= uint64(cachedTrials*maxN) && cachedMed < rtt/2,
	})

	// --- Event coherence: a new application pierces the cache. ---
	t0 := time.Now()
	late, err := AttachApp(big.peers[0], "p1-late", 1)
	if err != nil {
		return res, err
	}
	defer late.Close()
	lateID := late.AppID()
	visible := false
	for deadline := time.Now().Add(5 * time.Second); !visible && time.Now().Before(deadline); {
		for _, a := range portal.RemoteApps(context.Background(), "alice") {
			if a.ID == lateID && !a.Unavailable {
				visible = true
			}
		}
		if !visible {
			time.Sleep(2 * time.Millisecond)
		}
	}
	coherenceLag := time.Since(t0)
	evInvalidations := portal.DirectoryStats().EventInvalidations
	res.Rows = append(res.Rows, Row{
		Name:  "cache coherence on app registration",
		Paper: "lifecycle events invalidate eagerly — visibility is event-paced, not TTL-paced",
		Measured: fmt.Sprintf("new app visible in %s (TTL %s), %d event invalidations",
			coherenceLag.Round(time.Millisecond), core.DefaultDirCacheTTL, evInvalidations),
		Pass: visible && evInvalidations >= 1 && coherenceLag < core.DefaultDirCacheTTL,
	})

	// --- Partition: the listing stays fast and marked, then recovers. ---
	target := big.peers[0] // hosts two applications by now
	big.fed.Net.Partition("home", target.Site)
	for i := 0; i < core.DefaultDownAfter; i++ {
		portal.CheckPeersNow()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	t0 = time.Now()
	apps := portal.RemoteApps(ctx, "alice")
	partLat := time.Since(t0)
	cancel()
	var unavailable, available int
	for _, a := range apps {
		switch {
		case server.ServerOfApp(a.ID) == target.Name && a.Unavailable:
			unavailable++
		case !a.Unavailable:
			available++
		}
	}
	big.fed.Net.Heal("home", target.Site)
	portal.CheckPeersNow() // recovery probe closes the breaker
	recovered := false
	for deadline := time.Now().Add(5 * time.Second); !recovered && time.Now().Before(deadline); {
		recovered = true
		all := portal.RemoteApps(context.Background(), "alice")
		if len(all) != maxN+1 {
			recovered = false
		}
		for _, a := range all {
			if a.Unavailable {
				recovered = false
			}
		}
		if !recovered {
			time.Sleep(2 * time.Millisecond)
		}
	}
	res.Rows = append(res.Rows, Row{
		Name:  "listing under partition",
		Paper: "a dead peer degrades the listing (unavailable-marked) without slowing it",
		Measured: fmt.Sprintf("returned in %s (budget 2s): %d unavailable at %s, %d available; recovered after heal: %v",
			partLat.Round(time.Millisecond), unavailable, target.Name, available, recovered),
		Pass: partLat < 500*time.Millisecond && unavailable == 2 && available == maxN-1 && recovered,
	})
	return res, nil
}

// p1Fed is one portal + N peer federation deployed for RunP1.
type p1Fed struct {
	fed    *Federation
	portal *Domain
	peers  []*Domain
	apps   []*appproto.Session
}

func (f *p1Fed) close() {
	for _, s := range f.apps {
		s.Close()
	}
	f.fed.Close()
}

// measureUncached measures the portal's listing latency with the cache
// off: first one peer at a time, then with the default scatter-gather
// pool — the worker count is the only variable between the two.
func (f *p1Fed) measureUncached(trials, n int) (seq, par time.Duration, err error) {
	f.portal.Sub.SetDirCacheTTL(-1)
	f.portal.Sub.SetFanoutWorkers(1)
	if seq, err = f.listMedian(trials, n); err != nil {
		return
	}
	f.portal.Sub.SetFanoutWorkers(0) // restore the default pool
	par, err = f.listMedian(trials, n)
	return
}

// listMedian measures the portal's federation-wide listing latency and
// checks every round sees all wantApps applications.
func (f *p1Fed) listMedian(trials, wantApps int) (time.Duration, error) {
	var ds []time.Duration
	for i := 0; i < trials; i++ {
		t0 := time.Now()
		apps := f.portal.Sub.RemoteApps(context.Background(), "alice")
		ds = append(ds, time.Since(t0))
		if len(apps) != wantApps {
			return 0, fmt.Errorf("p1: listing saw %d apps, want %d", len(apps), wantApps)
		}
	}
	return median(ds), nil
}

// deployP1 builds a portal at "home" plus n peer domains, each at its own
// site rtt away, hosting one application apiece.
func deployP1(n int, rtt time.Duration) (*p1Fed, error) {
	domains := []struct {
		Name string
		Site netsim.Site
	}{DomainAt("portal", "home")}
	sites := make([]netsim.Site, n)
	for i := 0; i < n; i++ {
		sites[i] = netsim.Site(fmt.Sprintf("s%d", i+1))
		domains = append(domains, DomainAt(fmt.Sprintf("d%d", i+1), sites[i]))
	}
	fed, err := NewFederation(FederationConfig{
		Domains: domains,
		Topology: func(t *netsim.Topology) {
			for i, si := range sites {
				t.SetRTT("home", si, rtt)
				for _, sj := range sites[i+1:] {
					t.SetRTT(si, sj, rtt)
				}
			}
		},
		DialTimeout:    250 * time.Millisecond,
		HeartbeatEvery: time.Hour, // driven manually via CheckPeersNow
		OfferTTL:       time.Hour, // no background trader traffic during
		DiscoverEvery:  time.Hour, // the measurement windows
	})
	if err != nil {
		return nil, err
	}
	f := &p1Fed{fed: fed, portal: fed.Domains[0], peers: fed.Domains[1:]}
	for i, d := range f.peers {
		sess, err := AttachApp(d, fmt.Sprintf("p1app-%d", i+1), 1)
		if err != nil {
			f.close()
			return nil, err
		}
		f.apps = append(f.apps, sess)
	}
	return f, nil
}
