// Package deploy is the one federation builder: StartDomain boots every
// domain (server, daemon, ORB endpoint and substrate) and StartTrader the
// trader, for the public facade, the experiments and the substrate's
// federation tests alike. Env carries the only inputs a harness adds to
// the product's DomainConfig.
package deploy

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"discover/internal/clock"
	"discover/internal/core"
	"discover/internal/orb"
	"discover/internal/server"
	"discover/internal/storage"
	"discover/internal/tlsutil"
	"discover/internal/userdir"
)

// Env is what a harness injects beyond the product configuration. The
// zero Env is the shipped deployment: direct TCP dials, real time and
// core's default dial budget.
type Env struct {
	// Dial makes every outbound ORB connection (nil = net.Dialer).
	Dial orb.Dialer
	// Clock drives the substrate's tickers and the trader's leases
	// (nil = clock.Real).
	Clock clock.Clock
	// DialTimeout bounds connection establishment and every heartbeat
	// and probe (0 = core.DefaultDialTimeout). A black-holed dial gives
	// up on real time, so this is the one timing value a harness sets.
	DialTimeout time.Duration
}

func (e Env) orbOptions() []orb.Option {
	if e.Dial == nil {
		return nil
	}
	return []orb.Option{orb.WithDialer(e.Dial)}
}

// TraderService hosts the federation's shared Trader service, and
// optionally the centralized user directory of §6.3.
type TraderService struct {
	orb *orb.ORB

	mu  sync.Mutex
	dir *userdir.Directory
}

// StartTrader starts a trader endpoint on addr ("127.0.0.1:0" for
// an ephemeral port). Its offer leases expire on env's clock.
func StartTrader(addr string, env Env) (*TraderService, error) {
	o := orb.New(env.orbOptions()...)
	if err := o.Listen(addr); err != nil {
		return nil, err
	}
	var opts []orb.TraderOption
	if env.Clock != nil {
		opts = append(opts, orb.WithTraderClock(env.Clock.Now))
	}
	o.Register(orb.TraderKey, orb.NewTrader(opts...).Servant())
	return &TraderService{orb: o}, nil
}

// Addr returns the trader endpoint address.
func (t *TraderService) Addr() string { return t.orb.Addr() }

// UserDirectory enables (on first call) and returns the centralized user
// directory co-hosted with the trader — the GIS-style service §6.3
// proposes so user-ids need not be provisioned per server. Register users
// on the returned Directory; domains configured with UserDirAddr pointing
// here fall back to it for logins.
func (t *TraderService) UserDirectory() *userdir.Directory {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dir == nil {
		t.dir = userdir.New()
		t.orb.Register(userdir.Key, t.dir.Servant())
	}
	return t.dir
}

// Close stops the trader.
func (t *TraderService) Close() { t.orb.Close() }

// DomainConfig configures one collaboratory domain.
type DomainConfig struct {
	// Name uniquely identifies the domain's server in the federation.
	Name string
	// HTTPAddr serves the web portal API ("" disables the built-in
	// listener; use Domain.Handler with your own http.Server).
	HTTPAddr string
	// DaemonAddr accepts application connections (default ephemeral).
	DaemonAddr string
	// ORBAddr is the middleware endpoint (default ephemeral).
	ORBAddr string
	// TraderAddr joins the federation at this trader ("" = standalone
	// centralized server, the paper's baseline).
	TraderAddr string
	// Users maps home-server user-ids to login secrets.
	Users map[string]string
	// UserDirAddr points at a centralized user directory (usually the
	// trader address after TraderService.UserDirectory was enabled);
	// logins for users without a home credential fall back to it.
	UserDirAddr string
	// Props adds trader offer properties (e.g. "site": "piscataway").
	Props map[string]string
	// TLS serves the portal over HTTPS — the paper's SSL-based secure
	// server. With SelfSigned, an ephemeral certificate is generated and
	// Domain.CertPool trusts it; otherwise CertFile/KeyFile are loaded.
	TLS *TLSConfig
	// SessionIdleTimeout reaps portal sessions that stop polling for this
	// long, releasing their locks and group memberships (0 disables).
	SessionIdleTimeout time.Duration
	// RecordUpdates stores periodic updates in the record database.
	RecordUpdates bool
	// DataDir makes the domain durable: sessions, delivery queues, lock
	// holders, archives and records are WAL-journaled and snapshotted
	// under this directory, and StartDomain replays them after a crash
	// ("" keeps the domain purely in memory, as before).
	DataDir string
	// SnapshotEvery tunes the durable domain's snapshot/compaction
	// cadence (0 = default 1m; ignored without DataDir).
	SnapshotEvery time.Duration
	// WalSyncEvery tunes the WAL group-fsync interval (0 = default
	// 100ms; ignored without DataDir).
	WalSyncEvery time.Duration
	// TraceSampleEvery samples one in every N portal requests for
	// distributed tracing (GET /api/v1/trace/{id}); 0 disables sampling.
	// The tracer is process-wide, so the last domain started in a
	// process wins.
	TraceSampleEvery int
	// EnablePprof mounts net/http/pprof under /debug/pprof on the
	// portal handler.
	EnablePprof bool
	// Logf receives operational logs (default log.Printf; use a no-op in
	// benchmarks).
	Logf func(format string, args ...any)
}

// TLSConfig selects the portal's TLS material.
type TLSConfig struct {
	SelfSigned bool   // generate an ephemeral certificate
	CertFile   string // PEM certificate chain (when not self-signed)
	KeyFile    string // PEM private key
}

// Domain is one running collaboratory domain.
type Domain struct {
	Server    *server.Server
	ORB       *orb.ORB
	Substrate *core.Substrate // nil for standalone domains

	httpLn      net.Listener
	httpSrv     *http.Server
	dirORB      *orb.ORB // client-only ORB for the user directory, if separate
	tlsOn       bool
	certPool    *x509.CertPool
	stopJanitor func()
	crashed     bool
}

// StartDomain brings a domain up: server, daemon, ORB, substrate, and
// (optionally) the HTTP portal listener. On error everything it started
// is stopped again.
func StartDomain(cfg DomainConfig, env Env) (*Domain, error) {
	var backend storage.Backend
	if cfg.DataDir != "" {
		fb, err := storage.OpenFile(cfg.DataDir)
		if err != nil {
			return nil, fmt.Errorf("discover: opening data dir: %w", err)
		}
		backend = fb
	}
	srv, err := server.New(server.Config{
		Name:             cfg.Name,
		RecordUpdates:    cfg.RecordUpdates,
		TraceSampleEvery: cfg.TraceSampleEvery,
		EnablePprof:      cfg.EnablePprof,
		Logf:             cfg.Logf,
		Storage:          backend,
		SnapshotEvery:    cfg.SnapshotEvery,
		WalSyncEvery:     cfg.WalSyncEvery,
	})
	if err != nil {
		if backend != nil {
			backend.Close()
		}
		return nil, err
	}
	d := &Domain{Server: srv}
	if err := d.start(cfg, env); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

// start brings up everything after the server; StartDomain closes d if
// it fails part-way.
func (d *Domain) start(cfg DomainConfig, env Env) error {
	srv := d.Server
	daemonAddr := cfg.DaemonAddr
	if daemonAddr == "" {
		daemonAddr = "127.0.0.1:0"
	}
	if err := srv.ListenDaemon(daemonAddr); err != nil {
		return err
	}
	for user, secret := range cfg.Users {
		srv.Auth().SetUserSecret(user, secret)
	}

	if cfg.TraderAddr != "" {
		orbAddr := cfg.ORBAddr
		if orbAddr == "" {
			orbAddr = "127.0.0.1:0"
		}
		d.ORB = orb.New(env.orbOptions()...)
		if err := d.ORB.Listen(orbAddr); err != nil {
			return err
		}
		sub, err := core.New(core.Config{
			Server:      srv,
			ORB:         d.ORB,
			TraderRef:   orb.ObjRef{Addr: cfg.TraderAddr, Key: orb.TraderKey},
			Props:       cfg.Props,
			Logf:        cfg.Logf,
			Clock:       env.Clock,
			DialTimeout: env.DialTimeout,
		})
		if err != nil {
			return err
		}
		d.Substrate = sub
		if err := sub.Start(); err != nil {
			return err
		}
	}

	if cfg.UserDirAddr != "" {
		dirOrb := d.ORB
		if dirOrb == nil {
			dirOrb = orb.New(env.orbOptions()...) // client-only
			d.dirORB = dirOrb
		}
		dir := userdir.NewClient(dirOrb, orb.ObjRef{Addr: cfg.UserDirAddr, Key: userdir.Key})
		srv.Auth().SetFallback(func(ctx context.Context, user, secret string) bool {
			// Cap the directory lookup even when the login request carries
			// no deadline of its own.
			ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			defer cancel()
			ok, err := dir.Verify(ctx, user, secret)
			return err == nil && ok
		})
	}

	if cfg.HTTPAddr != "" {
		ln, err := net.Listen("tcp", cfg.HTTPAddr)
		if err != nil {
			return err
		}
		if cfg.TLS != nil {
			cert, err := d.loadCert(cfg.TLS)
			if err != nil {
				ln.Close()
				return err
			}
			ln = tls.NewListener(ln, tlsutil.ServerConfig(cert))
			d.tlsOn = true
		}
		d.httpLn = ln
		d.httpSrv = &http.Server{Handler: srv.HTTPHandler()}
		go d.httpSrv.Serve(ln)
	}

	if cfg.SessionIdleTimeout > 0 {
		every := cfg.SessionIdleTimeout / 4
		if every < time.Second {
			every = time.Second
		}
		d.stopJanitor = srv.StartJanitor(every, cfg.SessionIdleTimeout)
	}
	return nil
}

func (d *Domain) loadCert(c *TLSConfig) (tls.Certificate, error) {
	if !c.SelfSigned {
		cert, err := tls.LoadX509KeyPair(c.CertFile, c.KeyFile)
		if err != nil {
			return cert, fmt.Errorf("discover: loading TLS keypair: %w", err)
		}
		return cert, nil
	}
	cert, pool, err := tlsutil.SelfSigned("127.0.0.1", "localhost")
	d.certPool = pool
	return cert, err
}

// Handler returns the domain's web API for mounting in a custom server.
func (d *Domain) Handler() http.Handler { return d.Server.HTTPHandler() }

// HTTPAddr returns the portal address ("" if no built-in listener).
func (d *Domain) HTTPAddr() string {
	if d.httpLn == nil {
		return ""
	}
	return d.httpLn.Addr().String()
}

// BaseURL returns the portal base URL for NewClient.
func (d *Domain) BaseURL() string {
	if d.httpLn == nil {
		return ""
	}
	scheme := "http://"
	if d.tlsOn {
		scheme = "https://"
	}
	return scheme + d.HTTPAddr()
}

// CertPool returns the pool trusting a self-signed portal certificate
// (nil otherwise); pass it to TLSClient for a ready-made HTTPS client.
func (d *Domain) CertPool() *x509.CertPool { return d.certPool }

// DaemonAddr returns the application daemon address.
func (d *Domain) DaemonAddr() string { return d.Server.Daemon().Addr() }

// Close shuts the domain down: the edge drains first (new requests are
// shed with 503 shutting_down while in-flight ones finish), then the
// HTTP listener stops. Closing a crash-stopped domain does nothing.
func (d *Domain) Close() {
	if d.crashed {
		return
	}
	d.Server.BeginDrain()
	if d.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		d.httpSrv.Shutdown(ctx)
		cancel()
	}
	d.stopMiddleware()
	d.Server.Close()
}

// CrashStop kills the domain the way a crashed process dies: the server
// crash-stops first (no final snapshot, no WAL sync, no clean-shutdown
// marker, no journaled teardown), then the portal, substrate and ORB stop
// without draining.
func (d *Domain) CrashStop() {
	d.crashed = true
	d.Server.CrashStop()
	if d.httpSrv != nil {
		d.httpSrv.Close()
	}
	d.stopMiddleware()
}

func (d *Domain) stopMiddleware() {
	if d.Substrate != nil {
		d.Substrate.Close()
	}
	if d.ORB != nil {
		d.ORB.Close()
	}
	if d.dirORB != nil {
		d.dirORB.Close()
	}
	if d.stopJanitor != nil {
		d.stopJanitor()
	}
}
