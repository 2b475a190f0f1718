// Package discover is the public facade of this repository: a Go
// implementation of the DISCOVER computational collaboratory and its
// peer-to-peer middleware substrate (Mann & Parashar, "Middleware Support
// for Global Access to Integrated Computational Collaboratories",
// HPDC 2001).
//
// The moving parts, bottom to top:
//
//   - a Trader for server discovery — start one per federation with
//     StartTrader;
//   - Domains: one interaction/collaboration server each, bundling the
//     HTTP portal API, the application daemon, the ORB endpoint and the
//     middleware substrate — StartDomain;
//   - Applications: steerable simulations that connect to a domain's
//     daemon — RunApplication / NewApplication;
//   - Clients: web-portal clients that log into their closest domain and
//     gain global access to every application in the federation —
//     NewClient.
//
// See examples/ for runnable end-to-end scenarios and DESIGN.md for the
// architecture and its mapping to the paper.
package discover

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"discover/internal/app"
	"discover/internal/appproto"
	"discover/internal/core"
	"discover/internal/orb"
	"discover/internal/portal"
	"discover/internal/server"
	"discover/internal/storage"
	"discover/internal/tlsutil"
	"discover/internal/userdir"
)

// Re-exported types forming the public vocabulary.
type (
	// AppInfo describes one application visible to a user.
	AppInfo = server.AppInfo
	// UserGrant pairs a user with a privilege in an application's ACL.
	UserGrant = app.UserGrant
	// AppConfig configures a steerable application.
	AppConfig = app.Config
	// Client is a web-portal client.
	Client = portal.Client
)

// ---------------------------------------------------------------------------
// Trader
// ---------------------------------------------------------------------------

// TraderService hosts the federation's shared Trader service, and
// optionally the centralized user directory of §6.3.
type TraderService struct {
	orb *orb.ORB

	mu  sync.Mutex
	dir *userdir.Directory
}

// StartTrader starts a trader endpoint on addr ("127.0.0.1:0" for
// an ephemeral port).
func StartTrader(addr string) (*TraderService, error) {
	o := orb.New()
	if err := o.Listen(addr); err != nil {
		return nil, err
	}
	o.Register(orb.TraderKey, orb.NewTrader().Servant())
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

// TraderRefs derives the trader's object reference from its endpoint
// address, for domains joining an already-running federation.
func TraderRefs(addr string) orb.ObjRef {
	return orb.ObjRef{Addr: addr, Key: orb.TraderKey}
}

// ---------------------------------------------------------------------------
// Domain
// ---------------------------------------------------------------------------

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
}

// StartDomain brings a domain up: server, daemon, ORB, substrate, and
// (optionally) the HTTP portal listener.
func StartDomain(cfg DomainConfig) (*Domain, error) {
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
	daemonAddr := cfg.DaemonAddr
	if daemonAddr == "" {
		daemonAddr = "127.0.0.1:0"
	}
	if err := srv.ListenDaemon(daemonAddr); err != nil {
		return nil, err
	}
	for user, secret := range cfg.Users {
		srv.Auth().SetUserSecret(user, secret)
	}

	d := &Domain{Server: srv}
	if cfg.SessionIdleTimeout > 0 {
		every := cfg.SessionIdleTimeout / 4
		if every < time.Second {
			every = time.Second
		}
		d.stopJanitor = srv.StartJanitor(every, cfg.SessionIdleTimeout)
	}

	if cfg.TraderAddr != "" {
		orbAddr := cfg.ORBAddr
		if orbAddr == "" {
			orbAddr = "127.0.0.1:0"
		}
		o := orb.New()
		if err := o.Listen(orbAddr); err != nil {
			srv.Close()
			return nil, err
		}
		sub, err := core.New(core.Config{
			Server:    srv,
			ORB:       o,
			TraderRef: TraderRefs(cfg.TraderAddr),
			Props:     cfg.Props,
			Logf:      cfg.Logf,
		})
		if err != nil {
			o.Close()
			srv.Close()
			return nil, err
		}
		if err := sub.Start(); err != nil {
			o.Close()
			srv.Close()
			return nil, err
		}
		d.ORB = o
		d.Substrate = sub
	}

	if cfg.UserDirAddr != "" {
		dirOrb := d.ORB
		if dirOrb == nil {
			dirOrb = orb.New() // client-only
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
			d.Close()
			return nil, err
		}
		if cfg.TLS != nil {
			var cert tls.Certificate
			if cfg.TLS.SelfSigned {
				var pool *x509.CertPool
				cert, pool, err = tlsutil.SelfSigned("127.0.0.1", "localhost")
				if err != nil {
					ln.Close()
					d.Close()
					return nil, err
				}
				d.certPool = pool
			} else {
				cert, err = tls.LoadX509KeyPair(cfg.TLS.CertFile, cfg.TLS.KeyFile)
				if err != nil {
					ln.Close()
					d.Close()
					return nil, fmt.Errorf("discover: loading TLS keypair: %w", err)
				}
			}
			ln = tls.NewListener(ln, tlsutil.ServerConfig(cert))
			d.tlsOn = true
		}
		d.httpLn = ln
		d.httpSrv = &http.Server{Handler: srv.HTTPHandler()}
		go d.httpSrv.Serve(ln)
	}
	return d, nil
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

// TLSClient builds an http.Client trusting pool, for portals served with
// a self-signed certificate.
func TLSClient(pool *x509.CertPool) *http.Client {
	return &http.Client{Transport: &http.Transport{
		TLSClientConfig: tlsutil.ClientConfig(pool),
	}}
}

// DaemonAddr returns the application daemon address.
func (d *Domain) DaemonAddr() string { return d.Server.Daemon().Addr() }

// Close shuts the domain down: the edge drains first (new requests are
// shed with 503 shutting_down while in-flight ones finish), then the
// HTTP listener stops.
func (d *Domain) Close() {
	d.Server.BeginDrain()
	if d.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		d.httpSrv.Shutdown(ctx)
		cancel()
	}
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
	d.Server.Close()
}

// ---------------------------------------------------------------------------
// Applications
// ---------------------------------------------------------------------------

// Application is a steerable simulation connected to a domain.
type Application struct {
	Session *appproto.Session
}

// NewApplication creates the runtime and connects it to a domain's
// daemon. Drive it with Run (or Session.RunPhase for manual control).
func NewApplication(ctx context.Context, daemonAddr string, cfg AppConfig) (*Application, error) {
	rt, err := app.NewRuntime(cfg)
	if err != nil {
		return nil, err
	}
	sess, err := appproto.Dial(ctx, daemonAddr, rt)
	if err != nil {
		return nil, err
	}
	return &Application{Session: sess}, nil
}

// NewKernel constructs a simulation kernel by kind: "oil-reservoir",
// "cfd-cavity", "seismic-1d" or "relativity".
func NewKernel(kind string) (app.Kernel, error) { return app.NewKernel(kind) }

// ID returns the server-assigned application identifier.
func (a *Application) ID() string { return a.Session.AppID() }

// Run cycles compute/interaction phases until ctx is cancelled.
func (a *Application) Run(ctx context.Context) error { return a.Session.Run(ctx) }

// Close disconnects the application.
func (a *Application) Close() error { return a.Session.Close() }

// RunApplication is the one-call variant: connect and run until ctx ends.
func RunApplication(ctx context.Context, daemonAddr string, cfg AppConfig) error {
	a, err := NewApplication(ctx, daemonAddr, cfg)
	if err != nil {
		return err
	}
	defer a.Close()
	if err := a.Run(ctx); err != nil && err != context.Canceled {
		return fmt.Errorf("discover: application %s: %w", cfg.Name, err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Clients
// ---------------------------------------------------------------------------

// NewClient creates a web-portal client for a domain's base URL.
func NewClient(baseURL string, opts ...portal.Option) *Client {
	return portal.New(baseURL, opts...)
}

// WithHTTPClient customizes the portal's HTTP transport (e.g. to dial
// through a simulated WAN).
func WithHTTPClient(hc *http.Client) portal.Option { return portal.WithHTTPClient(hc) }
