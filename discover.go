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
	"crypto/x509"
	"fmt"
	"net/http"

	"discover/internal/app"
	"discover/internal/appproto"
	"discover/internal/deploy"
	"discover/internal/orb"
	"discover/internal/portal"
	"discover/internal/server"
	"discover/internal/tlsutil"
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
// Trader and domains: the one builder lives in internal/deploy.
// ---------------------------------------------------------------------------

type (
	// TraderService hosts the federation's shared Trader service, and
	// optionally the centralized user directory of §6.3.
	TraderService = deploy.TraderService
	// DomainConfig configures one collaboratory domain.
	DomainConfig = deploy.DomainConfig
	// TLSConfig selects the portal's TLS material.
	TLSConfig = deploy.TLSConfig
	// Domain is one running collaboratory domain.
	Domain = deploy.Domain
)

// StartTrader starts a trader endpoint on addr ("127.0.0.1:0" for
// an ephemeral port).
func StartTrader(addr string) (*TraderService, error) { return deploy.StartTrader(addr, deploy.Env{}) }

// TraderRefs derives the trader's object reference from its endpoint
// address, for domains joining an already-running federation.
func TraderRefs(addr string) orb.ObjRef {
	return orb.ObjRef{Addr: addr, Key: orb.TraderKey}
}

// StartDomain brings a domain up: server, daemon, ORB, substrate, and
// (optionally) the HTTP portal listener.
func StartDomain(cfg DomainConfig) (*Domain, error) { return deploy.StartDomain(cfg, deploy.Env{}) }

// TLSClient builds an http.Client trusting pool, for portals served with
// a self-signed certificate.
func TLSClient(pool *x509.CertPool) *http.Client {
	return &http.Client{Transport: &http.Transport{
		TLSClientConfig: tlsutil.ClientConfig(pool),
	}}
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
