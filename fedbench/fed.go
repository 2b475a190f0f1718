package main

// The federation process. The benchmark re-executes its own binary with
// -serve so that the system under test runs in a process of its own: its
// CPU time and peak RSS are then the program's, not the load generator's.
// It talks to the parent over stdin/stdout, one JSON value per line:
// it prints a readyMsg once booted, answers "mark" (a plain window
// starts) or "mark trace" (a traced one) with "{}" and "report"
// with a phaseReport, and exits on "quit" or when stdin closes.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"discover"
	"discover/internal/app"
	"discover/internal/appproto"
)

// fedShape is the federation a workload runs against.
type fedShape struct {
	Domains []string      `json:"domains"`
	Apps    []int         `json:"apps"`    // applications hosted per domain
	Pause   time.Duration `json:"pause"`   // pause after each application phase
	Durable bool          `json:"durable"` // give every domain a DataDir
}

// The one user every domain knows and every application grants steering.
const (
	benchUser   = "bench"
	benchSecret = "pw"
)

// spanHeader carries the generator's portal span id to the handler
// wrapper, linking server spans to the client call that caused them.
const spanHeader = "X-Fedbench-Span"

type readyMsg struct {
	PID     int          `json:"pid"`
	Domains []domainInfo `json:"domains"`
}

type domainInfo struct {
	Name string   `json:"name"`
	URL  string   `json:"url"`
	Apps []string `json:"apps"`
}

// phaseReport covers the application phases and handler calls since the
// last "mark".
type phaseReport struct {
	Phases   int64         `json:"phases"`
	Served   int64         `json:"served"`   // commands served in those phases
	AppBytes int64         `json:"appBytes"` // bytes on the application channels
	PhaseUS  []float64     `json:"phaseUs,omitempty"`
	Handlers []handlerSpan `json:"handlers,omitempty"`
}

// handlerSpan is one server handler call made under a generator span.
type handlerSpan struct {
	Parent uint64 `json:"parent"`
	Route  string `json:"route"`
	Start  int64  `json:"start"` // unix ns
	End    int64  `json:"end"`
}

type federation struct {
	trace   bool        // handlers are wrapped so spans can be recorded
	record  atomic.Bool // spans and phase times are recorded: a traced window
	trader  *discover.TraderService
	domains []*discover.Domain
	https   []*http.Server
	info    []domainInfo
	apps    []*appproto.Session

	stop chan struct{}
	wg   sync.WaitGroup

	phases, served, appBytes atomic.Int64

	mu       sync.Mutex
	base     phaseReport // counters at the last mark
	phaseUS  []float64
	handlers []handlerSpan
}

// serveFederation is the -serve entry point.
func serveFederation(shapeJSON, dataDir string, trace bool) int {
	var shape fedShape
	if err := json.Unmarshal([]byte(shapeJSON), &shape); err != nil {
		fmt.Fprintln(os.Stderr, "fedbench: bad -shape:", err)
		return 2
	}
	f, err := bootFederation(shape, dataDir, trace)
	if f != nil {
		defer f.close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedbench: federation:", err)
		return 1
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(readyMsg{PID: os.Getpid(), Domains: f.info}); err != nil {
		return 1
	}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		var reply any
		switch sc.Text() {
		case "mark", "mark trace":
			f.mark(sc.Text() == "mark trace")
			reply = struct{}{}
		case "report":
			reply = f.report()
		case "quit":
			return 0
		default:
			fmt.Fprintf(os.Stderr, "fedbench: unknown command %q\n", sc.Text())
			return 2
		}
		if err := out.Encode(reply); err != nil {
			return 1
		}
	}
	return 0
}

// bootFederation starts a trader, the domains with facade defaults, and
// the applications, then runs one discovery round on every domain so each
// knows all its peers. On error the partial federation is returned for
// closing.
func bootFederation(shape fedShape, dataDir string, trace bool) (*federation, error) {
	f := &federation{trace: trace, stop: make(chan struct{})}
	var err error
	if f.trader, err = discover.StartTrader("127.0.0.1:0"); err != nil {
		return f, err
	}
	for i, name := range shape.Domains {
		cfg := discover.DomainConfig{
			Name:       name,
			Users:      map[string]string{benchUser: benchSecret},
			Logf:       func(string, ...any) {},
			TraderAddr: f.trader.Addr(),
		}
		if shape.Durable {
			cfg.DataDir = fmt.Sprintf("%s/%s", dataDir, name)
		}
		d, err := discover.StartDomain(cfg)
		if err != nil {
			return f, fmt.Errorf("domain %s: %w", name, err)
		}
		f.domains = append(f.domains, d)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return f, err
		}
		hs := &http.Server{Handler: f.wrap(d.Handler())}
		f.https = append(f.https, hs)
		go hs.Serve(ln)
		info := domainInfo{Name: name, URL: "http://" + ln.Addr().String()}
		for j := 0; j < shape.Apps[i]; j++ {
			id, err := f.startApp(d, fmt.Sprintf("%s-app%d", name, j), shape.Pause)
			if err != nil {
				return f, fmt.Errorf("application on %s: %w", name, err)
			}
			info.Apps = append(info.Apps, id)
		}
		f.info = append(f.info, info)
	}
	for _, d := range f.domains {
		if err := d.Substrate.DiscoverPeers(); err != nil {
			return f, fmt.Errorf("discovery at %s: %w", d.Server.Name(), err)
		}
	}
	return f, nil
}

// startApp attaches one seismic application and drives its phases: one
// kernel step, then the fixed pause, so the phase cadence is a workload
// parameter rather than a spin loop.
func (f *federation) startApp(d *discover.Domain, name string, pause time.Duration) (string, error) {
	kernel, err := app.NewKernel("seismic-1d")
	if err != nil {
		return "", err
	}
	rt, err := app.NewRuntime(app.Config{
		Name: name, Kernel: kernel, ComputeSteps: 1,
		Users: []app.UserGrant{{User: benchUser, Privilege: "steer"}},
	})
	if err != nil {
		return "", err
	}
	var dialer net.Dialer
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := dialer.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return &countingConn{Conn: c, n: &f.appBytes}, nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sess, err := appproto.Dial(ctx, d.DaemonAddr(), rt, appproto.WithDialFunc(dial))
	if err != nil {
		return "", err
	}
	f.apps = append(f.apps, sess)
	f.wg.Add(1)
	go f.runApp(sess, pause)
	return sess.AppID(), nil
}

func (f *federation) runApp(sess *appproto.Session, pause time.Duration) {
	defer f.wg.Done()
	for {
		t0 := time.Now()
		n, err := sess.RunPhase()
		if err != nil {
			return // closed at shutdown
		}
		d := time.Since(t0)
		f.phases.Add(1)
		f.served.Add(int64(n))
		if f.record.Load() {
			f.mu.Lock()
			f.phaseUS = append(f.phaseUS, float64(d)/float64(time.Microsecond))
			f.mu.Unlock()
		}
		select {
		case <-f.stop:
			return
		case <-time.After(pause):
		}
	}
}

// wrap records a span for every handler call that carries the
// generator's span header while a traced window runs; without tracing the
// handler is returned as is.
func (f *federation) wrap(h http.Handler) http.Handler {
	if !f.trace {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !f.record.Load() {
			h.ServeHTTP(w, r)
			return
		}
		parent, err := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		f.mu.Lock()
		f.handlers = append(f.handlers, handlerSpan{
			Parent: parent, Route: routeOf(r.URL.Path),
			Start: start.UnixNano(), End: end.UnixNano(),
		})
		f.mu.Unlock()
	})
}

// routeOf names a portal route from its path: "/api/v1/command" is
// "command", "/api/v1/session/{id}/collab" is "session.collab".
func routeOf(path string) string {
	p := strings.Trim(strings.TrimPrefix(path, "/api/v1"), "/")
	if rest, ok := strings.CutPrefix(p, "session/"); ok {
		if i := strings.LastIndexByte(rest, '/'); i >= 0 {
			return "session." + rest[i+1:]
		}
	}
	return p
}

func (f *federation) counters() phaseReport {
	return phaseReport{Phases: f.phases.Load(), Served: f.served.Load(), AppBytes: f.appBytes.Load()}
}

// mark starts a window: counters are taken from here, and spans and phase
// times are recorded only in a traced one.
func (f *federation) mark(traced bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.record.Store(traced)
	f.base = f.counters()
	f.phaseUS = nil
	f.handlers = nil
}

func (f *federation) report() phaseReport {
	f.mu.Lock()
	defer f.mu.Unlock()
	r := f.counters()
	r.Phases -= f.base.Phases
	r.Served -= f.base.Served
	r.AppBytes -= f.base.AppBytes
	r.PhaseUS, r.Handlers = f.phaseUS, f.handlers
	return r
}

func (f *federation) close() {
	close(f.stop)
	for _, s := range f.apps {
		s.Close()
	}
	f.wg.Wait()
	for _, hs := range f.https {
		hs.Close()
	}
	for _, d := range f.domains {
		d.Close()
	}
	if f.trader != nil {
		f.trader.Close()
	}
}

// countingConn counts the bytes an application exchanges with its
// daemon, both directions.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}
