package experiments

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"discover/internal/app"
	"discover/internal/appproto"
	"discover/internal/portal"
	"discover/internal/server"
	"discover/internal/telemetry"
)

// standalone deploys one server with no federation (the centralized
// configuration the paper's §6.1 experiments ran).
func standalone(name string) (*server.Server, func(), error) {
	srv, err := server.New(server.Config{Name: name, Logf: quiet})
	if err != nil {
		return nil, nil, err
	}
	if err := srv.ListenDaemon("127.0.0.1:0"); err != nil {
		return nil, nil, err
	}
	srv.Auth().SetUserSecret("alice", "pw")
	return srv, srv.Close, nil
}

func attachStandaloneApp(srv *server.Server, name string) (*appproto.Session, error) {
	rt, err := app.NewRuntime(app.Config{
		Name:         name,
		Kernel:       app.NewSeismic1D(64),
		ComputeSteps: 2,
		Users:        []app.UserGrant{{User: "alice", Privilege: "steer"}},
	})
	if err != nil {
		return nil, err
	}
	return appproto.Dial(context.Background(), srv.Daemon().Addr(), rt)
}

// RunE1 measures how many simultaneous applications a single server
// sustains. The paper: "the current middleware can support more than 40
// simultaneous applications on a single server."
func RunE1(counts []int, window time.Duration) (Result, error) {
	if len(counts) == 0 {
		counts = []int{10, 20, 40, 80}
	}
	res := Result{ID: "E1", Title: "Simultaneous applications per server (§6.1)"}
	for _, n := range counts {
		srv, closeSrv, err := standalone("e1")
		if err != nil {
			return res, err
		}
		sessions := make([]*appproto.Session, 0, n)
		registered := 0
		for i := 0; i < n; i++ {
			s, err := attachStandaloneApp(srv, fmt.Sprintf("app-%d", i))
			if err == nil {
				sessions = append(sessions, s)
				registered++
			}
		}
		// Every app cycles phases concurrently for the window. Phase
		// latency lands in a telemetry histogram so the reference run's
		// numbers come from the same machinery /metrics exports.
		phaseHist := telemetry.GetHistogram("discover_e1_phase_seconds", "apps", fmt.Sprint(n))
		var phases atomic.Int64
		var minPhases atomic.Int64
		minPhases.Store(1 << 62)
		var wg sync.WaitGroup
		stopAt := time.Now().Add(window)
		for _, s := range sessions {
			wg.Add(1)
			go func(s *appproto.Session) {
				defer wg.Done()
				var mine int64
				for time.Now().Before(stopAt) {
					t0 := time.Now()
					if _, err := s.RunPhase(); err != nil {
						break
					}
					phaseHist.Observe(time.Since(t0))
					mine++
				}
				phases.Add(mine)
				for {
					cur := minPhases.Load()
					if mine >= cur || minPhases.CompareAndSwap(cur, mine) {
						break
					}
				}
			}(s)
		}
		wg.Wait()
		perApp := float64(phases.Load()) / float64(n) / window.Seconds()
		alive := minPhases.Load() > 0
		res.Rows = append(res.Rows, Row{
			Name:  fmt.Sprintf("%d simultaneous applications", n),
			Paper: "a single server supports >40 simultaneous applications",
			Measured: fmt.Sprintf("registered %d/%d, all making progress: %v, %.0f phases/s/app, phase mean %s",
				registered, n, alive, perApp, phaseHist.Mean().Round(time.Microsecond)),
			Pass: registered == n && alive,
		})
		for _, s := range sessions {
			s.Close()
		}
		closeSrv()
	}
	return res, nil
}

// RunE2 measures simultaneous HTTP portal clients against one server.
// The paper: "the middleware was able to support 20 simultaneous
// clients... beyond 20 we noticed degradation in performance."
func RunE2(counts []int, window time.Duration) (Result, error) {
	if len(counts) == 0 {
		counts = []int{5, 10, 20, 40}
	}
	res := Result{ID: "E2", Title: "Simultaneous clients per server (§6.1)"}
	var baseP95 time.Duration
	for i, n := range counts {
		srv, closeSrv, err := standalone("e2")
		if err != nil {
			return res, err
		}
		as, err := attachStandaloneApp(srv, "shared")
		if err != nil {
			closeSrv()
			return res, err
		}
		ts := httptest.NewServer(srv.HTTPHandler())

		// The application serves phases continuously.
		appCtx, stopApp := context.WithCancel(context.Background())
		appDone := make(chan struct{})
		go func() { defer close(appDone); as.Run(appCtx) }()

		// Round-trip latency goes through a telemetry histogram: the
		// reported p50/p95 are its power-of-two bucket bounds, the same
		// resolution an operator gets from GET /metrics.
		rtHist := telemetry.GetHistogram("discover_e2_roundtrip_seconds", "clients", fmt.Sprint(n))
		var ops atomic.Int64
		var wg sync.WaitGroup
		stopAt := time.Now().Add(window)
		for c := 0; c < n; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl := portal.New(ts.URL)
				ctx := context.Background()
				if err := cl.Login(ctx, "alice", "pw"); err != nil {
					return
				}
				if _, err := cl.ConnectApp(ctx, as.AppID()); err != nil {
					return
				}
				cl.StartPump(nil)
				defer cl.StopPump()
				for time.Now().Before(stopAt) {
					start := time.Now()
					wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
					_, err := cl.Do(wctx, "status", nil)
					cancel()
					if err != nil {
						return
					}
					rtHist.Observe(time.Since(start))
					ops.Add(1)
				}
			}()
		}
		wg.Wait()
		stopApp()
		<-appDone
		ts.Close()
		as.Close()
		closeSrv()

		p50, p95 := rtHist.Quantile(0.50), rtHist.Quantile(0.95)
		if i == 0 {
			baseP95 = p95
		}
		served := int(ops.Load())
		res.Rows = append(res.Rows, Row{
			Name:  fmt.Sprintf("%d simultaneous HTTP clients", n),
			Paper: "20 simultaneous clients; degradation beyond 20 on the paper's testbed",
			Measured: fmt.Sprintf("%d cmd+poll round trips, histogram p50≤%s p95≤%s mean %s (p95 at %d clients was %s)",
				served, p50.Round(time.Microsecond), p95.Round(time.Microsecond),
				rtHist.Mean().Round(time.Microsecond), counts[0], baseP95.Round(time.Microsecond)),
			Pass: served > 0 && rtHist.Count() > 0,
		})
	}
	return res, nil
}

// RunE3 measures the commodity-technology trade-off (§6.1/§6.2): the
// application path (custom binary protocol over TCP) against the client
// path (JSON over HTTP with poll-and-pull) for equivalent work — one
// status query served.
func RunE3(iters int) (Result, error) {
	res := Result{ID: "E3", Title: "Custom TCP protocol vs HTTP servlet path (§6.1)"}

	// TCP path: one application phase serving one buffered command.
	srv, closeSrv, err := standalone("e3")
	if err != nil {
		return res, err
	}
	defer closeSrv()
	as, err := attachStandaloneApp(srv, "tcp-path")
	if err != nil {
		return res, err
	}
	defer as.Close()
	sess, err := LoginLocal(&Domain{Srv: srv}, "alice")
	if err != nil {
		return res, err
	}
	if _, err := srv.ConnectApp(context.Background(), sess, as.AppID()); err != nil {
		return res, err
	}

	tcpHist := telemetry.GetHistogram("discover_e3_query_seconds", "path", "tcp")
	start := time.Now()
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		if _, err := srv.SubmitCommand(context.Background(), sess, "status", nil); err != nil {
			return res, err
		}
		if _, err := as.RunPhase(); err != nil {
			return res, err
		}
		sess.Buffer.DrainEntries(0)
		tcpHist.Observe(time.Since(t0))
	}
	tcpDur := time.Since(start)
	tcpRate := float64(iters) / tcpDur.Seconds()

	// HTTP path: the same query through the portal API.
	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()
	appCtx, stopApp := context.WithCancel(context.Background())
	appDone := make(chan struct{})
	go func() { defer close(appDone); as.Run(appCtx) }()
	defer func() { stopApp(); <-appDone }()

	cl := portal.New(ts.URL)
	ctx := context.Background()
	if err := cl.Login(ctx, "alice", "pw"); err != nil {
		return res, err
	}
	if _, err := cl.ConnectApp(ctx, as.AppID()); err != nil {
		return res, err
	}
	cl.StartPump(nil)
	defer cl.StopPump()

	httpIters := iters / 4
	if httpIters == 0 {
		httpIters = 1
	}
	httpHist := telemetry.GetHistogram("discover_e3_query_seconds", "path", "http")
	start = time.Now()
	for i := 0; i < httpIters; i++ {
		t0 := time.Now()
		wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		_, err := cl.Do(wctx, "status", nil)
		cancel()
		if err != nil {
			return res, err
		}
		httpHist.Observe(time.Since(t0))
	}
	httpDur := time.Since(start)
	httpRate := float64(httpIters) / httpDur.Seconds()

	res.Rows = append(res.Rows, Row{
		Name:  "application path (binary over TCP) vs client path (JSON over HTTP)",
		Paper: "more simultaneous apps than clients: the TCP custom protocol outperforms the HTTP servlet path",
		Measured: fmt.Sprintf("TCP %.0f queries/s vs HTTP %.0f queries/s (%.1fx); histogram means %s vs %s",
			tcpRate, httpRate, tcpRate/httpRate,
			tcpHist.Mean().Round(time.Microsecond), httpHist.Mean().Round(time.Microsecond)),
		Pass: tcpRate > httpRate,
	})
	return res, nil
}
