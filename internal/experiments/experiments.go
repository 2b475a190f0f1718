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
	"discover/internal/core"
	"discover/internal/netsim"
	"discover/internal/orb"
	"discover/internal/server"
	"discover/internal/session"
	"discover/internal/storage"
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

// Domain is one deployed collaboratory domain in a test federation.
type Domain struct {
	Name   string
	Site   netsim.Site
	Srv    *server.Server
	ORB    *orb.ORB
	Sub    *core.Substrate
	httpLn net.Listener
	hsrv   *http.Server
}

// BaseURL returns the domain's portal URL.
func (d *Domain) BaseURL() string { return "http://" + d.httpLn.Addr().String() }

// Federation is a set of domains joined through one trader over a
// simulated WAN.
type Federation struct {
	Net    *netsim.Network
	Trader *orb.ORB

	mu       sync.Mutex
	addrSite map[string]netsim.Site // listen addr -> site
	Domains  []*Domain
	closers  []func()
}

// FederationConfig configures NewFederation.
type FederationConfig struct {
	// Domains maps domain name -> site.
	Domains []struct {
		Name string
		Site netsim.Site
	}
	Topology   func(*netsim.Topology) // optional WAN shaping
	RelayBatch int                    // max messages per relay push invocation (0 = default)

	// Failure-detector knobs (0 = substrate default). Chaos experiments
	// set HeartbeatEvery very high and drive Sub.CheckPeersNow directly
	// for determinism.
	DialTimeout    time.Duration
	HeartbeatEvery time.Duration

	// Maintenance cadence (0 = substrate default). Latency experiments
	// stretch these so background trader traffic can't pollute wire
	// counters mid-measurement.
	OfferTTL      time.Duration
	DiscoverEvery time.Duration

	// Durability knobs (experiment R2). Domains named in StorageDirs run
	// with a file-backed WAL + snapshots rooted at the mapped directory;
	// everyone else stays in-memory. SnapshotEvery/WalSyncEvery pass
	// through to server.Config for the durable domains.
	StorageDirs   map[string]string
	SnapshotEvery time.Duration
	WalSyncEvery  time.Duration
}

// DomainAt is a convenience constructor for FederationConfig.Domains.
func DomainAt(name string, site netsim.Site) struct {
	Name string
	Site netsim.Site
} {
	return struct {
		Name string
		Site netsim.Site
	}{name, site}
}

// NewFederation deploys the domains, discovers peers, and returns the
// running federation. Call Close when done.
func NewFederation(cfg FederationConfig) (*Federation, error) {
	topo := netsim.NewTopology()
	if cfg.Topology != nil {
		cfg.Topology(topo)
	}
	f := &Federation{
		Net:      netsim.New(topo),
		addrSite: make(map[string]netsim.Site),
	}

	// The trader lives at the neutral "hub" site.
	f.Trader = orb.New(orb.WithDialer(f.dialerFrom("hub")))
	if err := f.Trader.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	f.closers = append(f.closers, func() { f.Trader.Close() })
	f.Trader.Register(orb.TraderKey, orb.NewTrader().Servant())
	f.setSite(f.Trader.Addr(), "hub")

	for _, dc := range cfg.Domains {
		d, err := f.addDomain(dc.Name, dc.Site, cfg)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.Domains = append(f.Domains, d)
	}
	for _, d := range f.Domains {
		if err := d.Sub.DiscoverPeers(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
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

// dialerFrom returns a dialer that shapes connections according to the
// destination address's registered site.
func (f *Federation) dialerFrom(site netsim.Site) orb.Dialer {
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		return f.Net.DialContext(ctx, site, f.siteOf(addr), network, addr)
	}
}

// HTTPClientFrom builds an http.Client whose connections originate at a
// site (for WAN portal clients).
func (f *Federation) HTTPClientFrom(site netsim.Site) *http.Client {
	return &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			return f.Net.DialContext(ctx, site, f.siteOf(addr), network, addr)
		},
	}}
}

func (f *Federation) addDomain(name string, site netsim.Site, cfg FederationConfig) (*Domain, error) {
	scfg := server.Config{Name: name, Logf: quiet}
	if dir, ok := cfg.StorageDirs[name]; ok {
		backend, err := storage.OpenFile(dir)
		if err != nil {
			return nil, err
		}
		scfg.Storage = backend
		scfg.SnapshotEvery = cfg.SnapshotEvery
		scfg.WalSyncEvery = cfg.WalSyncEvery
	}
	srv, err := server.New(scfg)
	if err != nil {
		if scfg.Storage != nil {
			scfg.Storage.Close()
		}
		return nil, err
	}
	if err := srv.ListenDaemon("127.0.0.1:0"); err != nil {
		return nil, err
	}
	f.closers = append(f.closers, srv.Close)
	f.setSite(srv.Daemon().Addr(), site)

	o := orb.New(orb.WithDialer(f.dialerFrom(site)))
	if err := o.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	f.closers = append(f.closers, func() { o.Close() })
	f.setSite(o.Addr(), site)

	sub, err := core.New(core.Config{
		Server:         srv,
		ORB:            o,
		TraderRef:      orb.ObjRef{Addr: f.Trader.Addr(), Key: orb.TraderKey},
		RelayBatch:     cfg.RelayBatch,
		DialTimeout:    cfg.DialTimeout,
		HeartbeatEvery: cfg.HeartbeatEvery,
		OfferTTL:       cfg.OfferTTL,
		DiscoverEvery:  cfg.DiscoverEvery,
		Props:          map[string]string{"site": string(site)},
		Logf:           quiet,
	})
	if err != nil {
		return nil, err
	}
	if err := sub.Start(); err != nil {
		return nil, err
	}
	f.closers = append(f.closers, sub.Close)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hsrv := &http.Server{Handler: srv.HTTPHandler()}
	go hsrv.Serve(ln)
	f.closers = append(f.closers, func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		hsrv.Shutdown(ctx)
		cancel()
	})
	f.setSite(ln.Addr().String(), site)

	return &Domain{Name: name, Site: site, Srv: srv, ORB: o, Sub: sub, httpLn: ln, hsrv: hsrv}, nil
}

// Kill crashes a domain: its site goes dark (in-flight client and peer
// connections sever), the server crash-stops (no final snapshot, no WAL
// sync, no clean-shutdown marker, no journaled teardown), and the
// substrate, ORB, and portal die without deregistering. Restart brings
// the domain back from its durable directory.
func (f *Federation) Kill(d *Domain) {
	f.Net.KillSite(d.Site)
	d.Srv.CrashStop()
	d.hsrv.Close()
	d.Sub.Close()
	d.ORB.Close()
}

// Restart revives a killed domain's site and rebuilds the domain from
// its durable directory under the same name and site, then re-runs peer
// discovery federation-wide so everyone learns the reborn addresses.
// The restarted listeners get fresh ports: clients re-resolve BaseURL
// and resume their streams with Last-Event-ID, exactly as they would
// after a real host restart. d is updated in place.
func (f *Federation) Restart(d *Domain, cfg FederationConfig) error {
	f.Net.Revive(d.Site)
	nd, err := f.addDomain(d.Name, d.Site, cfg)
	if err != nil {
		return err
	}
	*d = *nd
	for _, dd := range f.Domains {
		if err := dd.Sub.DiscoverPeers(); err != nil {
			return err
		}
	}
	return nil
}

// Close tears the federation down.
func (f *Federation) Close() {
	for i := len(f.closers) - 1; i >= 0; i-- {
		f.closers[i]()
	}
	f.closers = nil
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
	before := len(d.Srv.LocalAppIDs())
	sess, err := appproto.Dial(context.Background(), d.Srv.Daemon().Addr(), rt, opts...)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(d.Srv.LocalAppIDs()) <= before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if len(d.Srv.LocalAppIDs()) <= before {
		sess.Close()
		return nil, fmt.Errorf("experiments: app %s never registered", name)
	}
	return sess, nil
}

// LoginLocal creates a server-side session directly (ops-level client).
func LoginLocal(d *Domain, user string) (*session.Session, error) {
	d.Srv.Auth().SetUserSecret(user, "pw")
	return d.Srv.Login(context.Background(), user, "pw")
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
