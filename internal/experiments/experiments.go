// Package experiments reproduces the paper's evaluation (§6.1) and the
// measurements it announces as ongoing work (§7), plus ablations of the
// design choices discussed in §6.2. Each experiment returns a Result with
// paper-claim vs measured rows; cmd/benchharness prints them and
// EXPERIMENTS.md records a reference run.
//
// The testbed the paper used (Rutgers LAN, later UT Austin and Caltech
// deployments) is replaced by internal/netsim, so absolute numbers are
// not comparable — the experiments check the *shape* of each claim: who
// wins, by roughly what factor, and where the trade-offs fall.
package experiments

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"discover/internal/app"
	"discover/internal/appproto"
	"discover/internal/clock"
	"discover/internal/deploy"
	"discover/internal/netsim"
	"discover/internal/session"
)

// Row is one paper-vs-measured comparison line.
type Row struct {
	Name     string // what is being measured
	Paper    string // the paper's claim or expectation
	Measured string // what this run measured
	Pass     bool   // does the shape hold?
}

// Result is one experiment's outcome.
type Result struct {
	ID    string
	Title string
	Rows  []Row
}

// Pass reports whether every row passed.
func (r Result) Pass() bool {
	for _, row := range r.Rows {
		if !row.Pass {
			return false
		}
	}
	return true
}

// quiet is a no-op logger for benchmark deployments.
func quiet(string, ...any) {}

// ---------------------------------------------------------------------------
// Federation harness over a simulated WAN.
// ---------------------------------------------------------------------------

// Domain is one deployed collaboratory domain in a test federation,
// booted by the one builder (deploy.StartDomain).
type Domain struct {
	*deploy.Domain
	Name string
	Site netsim.Site
	spec Spec
}

// Spec is one domain of a federation: the netsim site its connections
// originate at, and the product config (name included) the builder boots
// it with.
type Spec struct {
	Site   netsim.Site
	Config deploy.DomainConfig
}

// Place is the Spec of a default in-memory domain named name at site.
func Place(name string, site netsim.Site) Spec {
	return Spec{Site: site, Config: deploy.DomainConfig{Name: name}}
}

// Federation is a set of domains joined through one trader over a
// simulated WAN.
type Federation struct {
	Net     *netsim.Network
	Trader  *deploy.TraderService
	Domains []*Domain

	// The builder's test-only inputs, shared by every domain: the clock
	// of the background loops and the trader's leases, and the dial
	// budget (nil and 0 = real time and core's default).
	clk         clock.Clock
	dialTimeout time.Duration

	mu       sync.Mutex
	addrSite map[string]netsim.Site // listen addr -> site
}

// NewFederation deploys one domain per spec over a simulated WAN shaped
// by topo (nil = unshaped), discovers peers, and returns the running
// federation. clk and dialTimeout are the builder's test-only inputs
// (nil and 0 = real time and core's default dial budget); a harness that
// passes a clock.Manual and never advances it runs with no heartbeat,
// offer-refresh or discovery traffic. Call Close when done.
func NewFederation(topo func(*netsim.Topology), clk clock.Clock, dialTimeout time.Duration, specs ...Spec) (*Federation, error) {
	t := netsim.NewTopology()
	if topo != nil {
		topo(t)
	}
	f := &Federation{
		Net:         netsim.New(t),
		clk:         clk,
		dialTimeout: dialTimeout,
		addrSite:    make(map[string]netsim.Site),
	}

	// The trader lives at the neutral "hub" site.
	tr, err := deploy.StartTrader("127.0.0.1:0", f.env("hub"))
	if err != nil {
		return nil, err
	}
	f.Trader = tr
	f.setSite(tr.Addr(), "hub")

	for _, spec := range specs {
		d := &Domain{Name: spec.Config.Name, Site: spec.Site, spec: spec}
		if err := f.boot(d); err != nil {
			f.Close()
			return nil, err
		}
		f.Domains = append(f.Domains, d)
	}
	if err := f.discoverAll(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func (f *Federation) env(site netsim.Site) deploy.Env {
	return deploy.Env{
		Dial: func(ctx context.Context, network, addr string) (net.Conn, error) {
			return f.Net.DialContext(ctx, site, f.siteOf(addr), network, addr)
		},
		Clock:       f.clk,
		DialTimeout: f.dialTimeout,
	}
}

// boot starts d from its spec through the builder, joined to the
// federation's trader with ephemeral listeners at d's site.
func (f *Federation) boot(d *Domain) error {
	cfg := d.spec.Config
	cfg.HTTPAddr = "127.0.0.1:0"
	cfg.TraderAddr = f.Trader.Addr()
	cfg.Props = map[string]string{"site": string(d.Site)}
	cfg.Logf = quiet
	dd, err := deploy.StartDomain(cfg, f.env(d.Site))
	if err != nil {
		return err
	}
	d.Domain = dd
	f.setSite(dd.DaemonAddr(), d.Site)
	f.setSite(dd.ORB.Addr(), d.Site)
	f.setSite(dd.HTTPAddr(), d.Site)
	return nil
}

func (f *Federation) discoverAll() error {
	for _, d := range f.Domains {
		if err := d.Substrate.DiscoverPeers(); err != nil {
			return err
		}
	}
	return nil
}

func (f *Federation) setSite(addr string, site netsim.Site) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.addrSite[addr] = site
}

func (f *Federation) siteOf(addr string) netsim.Site {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.addrSite[addr]; ok {
		return s
	}
	return "unknown"
}

// HTTPClientFrom builds an http.Client whose connections originate at a
// site (for WAN portal clients).
func (f *Federation) HTTPClientFrom(site netsim.Site) *http.Client {
	return &http.Client{Transport: &http.Transport{DialContext: f.env(site).Dial}}
}

// Kill crashes a domain: its site goes dark (in-flight client and peer
// connections sever) and the domain crash-stops (deploy.Domain.CrashStop:
// no final snapshot, no WAL sync, no clean-shutdown marker, no journaled
// teardown). Restart brings the domain back from its durable directory.
func (f *Federation) Kill(d *Domain) {
	f.Net.KillSite(d.Site)
	d.CrashStop()
}

// Restart revives a killed domain's site and rebuilds the domain from
// its spec (and so its durable directory) under the same name and site,
// then re-runs peer discovery federation-wide so everyone learns the
// reborn addresses. The restarted listeners get fresh ports: clients
// re-resolve BaseURL and resume their streams with Last-Event-ID,
// exactly as they would after a real host restart. d is updated in place.
func (f *Federation) Restart(d *Domain) error {
	f.Net.Revive(d.Site)
	if err := f.boot(d); err != nil {
		return err
	}
	return f.discoverAll()
}

// Close tears the federation down.
func (f *Federation) Close() {
	for i := len(f.Domains) - 1; i >= 0; i-- {
		f.Domains[i].Close()
	}
	f.Domains = nil
	f.Trader.Close()
}

// ---------------------------------------------------------------------------
// Shared workload helpers.
// ---------------------------------------------------------------------------

// AttachApp connects a fresh seismic application to a domain and waits
// for registration.
func AttachApp(d *Domain, name string, computeSteps int, opts ...appproto.DialOption) (*appproto.Session, error) {
	rt, err := app.NewRuntime(app.Config{
		Name:         name,
		Kernel:       app.NewSeismic1D(64),
		ComputeSteps: computeSteps,
		Users: []app.UserGrant{
			{User: "alice", Privilege: "steer"},
			{User: "bob", Privilege: "monitor"},
		},
	})
	if err != nil {
		return nil, err
	}
	before := len(d.Server.LocalAppIDs())
	sess, err := appproto.Dial(context.Background(), d.Server.Daemon().Addr(), rt, opts...)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(d.Server.LocalAppIDs()) <= before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if len(d.Server.LocalAppIDs()) <= before {
		sess.Close()
		return nil, fmt.Errorf("experiments: app %s never registered", name)
	}
	return sess, nil
}

// LoginLocal creates a server-side session directly (ops-level client).
func LoginLocal(d *Domain, user string) (*session.Session, error) {
	d.Server.Auth().SetUserSecret(user, "pw")
	return d.Server.Login(context.Background(), user, "pw")
}

// percentile returns the p-th percentile of durations (p in [0,100]).
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p / 100 * float64(len(sorted)-1))
	return sorted[idx]
}

// median is the 50th percentile.
func median(ds []time.Duration) time.Duration { return percentile(ds, 50) }
