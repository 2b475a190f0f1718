package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"
)

// churn is the session lifecycle over the federated directory (paper
// §5.1): each cycle logs in at a random domain, lists the federation's
// applications, connects to a random remote one, disconnects and logs
// out.
type churn struct {
	n int // issuing goroutines
}

const (
	churnDomains = 4
	churnApps    = 4 // per domain
	churnRate    = 50.0
	churnPause   = 50 * time.Millisecond
	churnLimit   = 500 * time.Millisecond
)

type cycle struct {
	due    time.Time
	domain int
	app    string
}

func (c *churn) shape() fedShape {
	names := make([]string, churnDomains)
	apps := make([]int, churnDomains)
	for i := range names {
		names[i] = fmt.Sprintf("site%d", i)
		apps[i] = churnApps
	}
	return fedShape{Domains: names, Apps: apps, Pause: churnPause}
}

func (c *churn) limit() time.Duration { return churnLimit }

func (c *churn) params() map[string]any {
	return map[string]any{
		"domains": churnDomains, "apps_per_domain": churnApps, "workers": c.n,
		"rate_cycles_per_s": churnRate, "phase_pause_ms": churnPause.Milliseconds(),
		"limit_ms": churnLimit.Milliseconds(),
		"unit":     "one login/apps/connect/disconnect/logout cycle, from due time to logout",
	}
}

// setup has nothing beyond the common readiness wait: cycles make their
// own sessions.
func (c *churn) setup(context.Context, *env) error { return nil }

func (c *churn) run(e *env, w *window) {
	doms := e.fed.ready.Domains
	var plan []cycle
	for _, due := range w.dues(poisson(w.rng, churnRate, w.span())) {
		d := w.rng.Intn(len(doms))
		remote := (d + 1 + w.rng.Intn(len(doms)-1)) % len(doms)
		apps := doms[remote].Apps
		plan = append(plan, cycle{due: due, domain: d, app: apps[w.rng.Intn(len(apps))]})
	}
	want := strings.Join(e.allApps(), ",")

	// One dispatcher keeps the schedule; a fixed pool issues the cycles.
	// Time a cycle waits for a free worker is the system's delay and
	// counts in its latency, since it is timed from its due time.
	queue := make(chan cycle, len(plan))
	go func() {
		defer close(queue)
		for _, cy := range plan {
			w.waitUntil(cy.due)
			queue <- cy
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < c.n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cy := range queue {
				w.rec.op(cy.due)
				err := c.cycle(e, w, cy, want)
				w.rec.done(cy.due, time.Now(), err)
			}
		}()
	}
	wg.Wait()
}

func (c *churn) cycle(e *env, w *window, cy cycle, want string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ctx, endUnit := w.tr.begin(ctx, "unit.churn")
	defer endUnit()
	pc := e.client(cy.domain)
	call := func(name string, f func(context.Context) error) error {
		ctx, end := w.tr.begin(ctx, "portal."+name)
		defer end()
		if err := f(ctx); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	if err := call("login", func(ctx context.Context) error {
		return pc.Login(ctx, benchUser, benchSecret)
	}); err != nil {
		return err
	}
	err := call("apps", func(ctx context.Context) error {
		e.listings.Add(1)
		apps, err := pc.Apps(ctx)
		if err == nil {
			if got := appIDs(apps); got != want {
				e.chk.fail(fmt.Sprintf("churn: listing at %s was [%s], want [%s]",
					e.fed.ready.Domains[cy.domain].Name, got, want))
			}
		}
		return err
	})
	if err == nil {
		err = call("connect", func(ctx context.Context) error {
			_, err := pc.ConnectApp(ctx, cy.app)
			return err
		})
	}
	if err == nil {
		err = call("disconnect", func(ctx context.Context) error { return pc.DisconnectApp(ctx) })
	}
	// Log out even after a failure, so a failed cycle leaves no session.
	if lerr := call("logout", func(ctx context.Context) error { return pc.Logout(ctx) }); err == nil {
		err = lerr
	}
	return err
}

func (c *churn) check(context.Context, *env) {}

func (c *churn) close() {}
