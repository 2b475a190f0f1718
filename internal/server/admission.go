package server

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"discover/internal/policy"
	"discover/internal/telemetry"
)

// Edge admission control (§6.3 writ large): before any handler runs, a
// request must clear three gates — the server must not be draining, the
// global in-flight limiter must have a slot, and the principal's token
// bucket (per-user at login, per-session everywhere else) must admit it.
// Shed requests get 429/503 with a retry_after_ms hint instead of
// queueing, so overload degrades into fast, explicit rejections rather
// than collapsing latency for everyone.

// DefaultMaxInflight bounds concurrently admitted portal requests when
// Config.MaxInflight is zero.
const DefaultMaxInflight = 4096

// DefaultRetryAfter is the retry_after_ms hint sent with shed requests
// when Config.RetryAfterHint is zero.
const DefaultRetryAfter = 250 * time.Millisecond

// DefaultMaxStreams bounds concurrently open SSE delivery streams when
// Config.MaxStreams is zero. Streams are long-lived, so they get their
// own cap instead of consuming MaxInflight slots: 100k parked streams
// must not starve request admission.
const DefaultMaxStreams = 131072

// edgeGate is one server's admission state.
type edgeGate struct {
	maxInflight int64
	maxStreams  int64
	retryAfter  time.Duration

	inflight     atomic.Int64
	inflightPeak atomic.Int64
	streams      atomic.Int64
	streamsPeak  atomic.Int64
	draining     atomic.Bool
	drainCh      chan struct{} // closed once when draining starts
	drainOnce    sync.Once

	users    *policy.Accountant // per-user login buckets
	sessions *policy.Accountant // per-session request buckets

	shedOverload    atomic.Uint64
	shedRateLimited atomic.Uint64
	shedDraining    atomic.Uint64
	shedStreamCap   atomic.Uint64

	// Process-wide metrics (shared across in-process servers, like every
	// other discover_* series).
	inflightGauge *telemetry.Gauge
	streamsGauge  *telemetry.Gauge
	shedTotal     map[ErrCode]*telemetry.Counter
}

func newEdgeGate(cfg Config) *edgeGate {
	g := &edgeGate{
		maxInflight:   int64(cfg.MaxInflight),
		maxStreams:    int64(cfg.MaxStreams),
		retryAfter:    cfg.RetryAfterHint,
		drainCh:       make(chan struct{}),
		users:         policy.NewAccountant(),
		sessions:      policy.NewAccountant(),
		inflightGauge: telemetry.GetGauge("discover_edge_inflight"),
		streamsGauge:  telemetry.GetGauge("discover_edge_streams_active"),
		shedTotal: map[ErrCode]*telemetry.Counter{
			CodeOverloaded:   telemetry.GetCounter("discover_edge_shed_total", "reason", "overloaded"),
			CodeRateLimited:  telemetry.GetCounter("discover_edge_shed_total", "reason", "rate_limited"),
			CodeShuttingDown: telemetry.GetCounter("discover_edge_shed_total", "reason", "shutting_down"),
		},
	}
	if g.maxInflight == 0 {
		g.maxInflight = DefaultMaxInflight
	}
	if g.maxStreams == 0 {
		g.maxStreams = DefaultMaxStreams
	}
	if g.retryAfter <= 0 {
		g.retryAfter = DefaultRetryAfter
	}
	if cfg.LoginRatePerSec > 0 {
		g.users.SetDefaultPolicy(policy.Policy{
			RequestsPerSec: cfg.LoginRatePerSec, RequestBurst: cfg.LoginBurst,
		})
	}
	if cfg.RequestRatePerSec > 0 {
		g.sessions.SetDefaultPolicy(policy.Policy{
			RequestsPerSec: cfg.RequestRatePerSec, RequestBurst: cfg.RequestBurst,
		})
	}
	return g
}

// enterStream admits or sheds one long-lived delivery stream. Streams
// clear the draining flag and their own connection cap, not the
// per-request in-flight limiter: an open stream parks for minutes, and
// counting it against MaxInflight would let 100k idle streams starve
// request admission. On admission the caller must defer leaveStream().
func (g *edgeGate) enterStream() (admitted bool, reason ErrCode) {
	if g.draining.Load() {
		g.shed(CodeShuttingDown)
		return false, CodeShuttingDown
	}
	n := g.streams.Add(1)
	if g.maxStreams > 0 && n > g.maxStreams {
		g.streamsGauge.Set(g.streams.Add(-1))
		g.shedStreamCap.Add(1)
		g.shed(CodeOverloaded)
		return false, CodeOverloaded
	}
	for {
		peak := g.streamsPeak.Load()
		if n <= peak || g.streamsPeak.CompareAndSwap(peak, n) {
			break
		}
	}
	g.streamsGauge.Set(n)
	return true, ""
}

func (g *edgeGate) leaveStream() {
	g.streamsGauge.Set(g.streams.Add(-1))
}

// drained returns a channel that closes when draining begins, so parked
// streams terminate promptly instead of waiting out a heartbeat.
func (g *edgeGate) drained() <-chan struct{} { return g.drainCh }

// shed records one rejected request under its reason code.
func (g *edgeGate) shed(code ErrCode) {
	switch code {
	case CodeOverloaded:
		g.shedOverload.Add(1)
	case CodeRateLimited:
		g.shedRateLimited.Add(1)
	case CodeShuttingDown:
		g.shedDraining.Add(1)
	}
	if c := g.shedTotal[code]; c != nil {
		c.Inc()
	}
}

// enter admits or sheds one request against the draining flag and the
// in-flight cap. On admission the caller must defer leave().
func (g *edgeGate) enter() (admitted bool, reason ErrCode) {
	if g.draining.Load() {
		g.shed(CodeShuttingDown)
		return false, CodeShuttingDown
	}
	n := g.inflight.Add(1)
	if g.maxInflight > 0 && n > g.maxInflight {
		g.inflight.Add(-1)
		g.inflightGauge.Set(g.inflight.Load())
		g.shed(CodeOverloaded)
		return false, CodeOverloaded
	}
	for {
		peak := g.inflightPeak.Load()
		if n <= peak || g.inflightPeak.CompareAndSwap(peak, n) {
			break
		}
	}
	g.inflightGauge.Set(n)
	return true, ""
}

func (g *edgeGate) leave() {
	g.inflightGauge.Set(g.inflight.Add(-1))
}

// allowLogin applies the per-user login bucket.
func (g *edgeGate) allowLogin(user string) bool { return g.users.Allow(user, 0) }

// allowSession applies the per-session request bucket.
func (g *edgeGate) allowSession(clientID string) bool { return g.sessions.Allow(clientID, 0) }

// forgetSession drops a finished session's bucket state.
func (g *edgeGate) forgetSession(clientID string) { g.sessions.Forget(clientID) }

// admit is the middleware wrapping every /api/v1 handler.
func (g *edgeGate) admit(h http.HandlerFunc, retryMS int64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ok, reason := g.enter()
		if !ok {
			writeErrCode(w, reason, "edge admission: "+string(reason), retryMS)
			return
		}
		defer g.leave()
		h(w, r)
	}
}

// BeginDrain starts connection draining: in-flight requests finish, new
// ones are shed with 503 shutting_down, and parked delivery streams are
// woken so they can end cleanly. Domain.Close calls this before
// http.Server.Shutdown so load balancers and portals see an explicit
// signal rather than connection resets.
func (s *Server) BeginDrain() {
	s.gate.draining.Store(true)
	s.gate.drainOnce.Do(func() { close(s.gate.drainCh) })
	if s.storage != nil {
		// Flush the WAL and write the clean-shutdown marker now: a drain
		// followed by process exit restarts without replay. Any append
		// after this point invalidates the marker again, so it is safe
		// even while in-flight requests finish.
		s.storage.flushMarkClean(s.cfg.Logf)
	}
}

// Draining reports whether the edge is refusing new requests.
func (s *Server) Draining() bool { return s.gate.draining.Load() }

// EdgeStats is the admission-control block of GET /api/v1/stats.
type EdgeStats struct {
	Inflight        int64  `json:"inflight"`
	InflightPeak    int64  `json:"inflightPeak"`
	MaxInflight     int64  `json:"maxInflight"`
	Streams         int64  `json:"streams"`
	StreamsPeak     int64  `json:"streamsPeak"`
	MaxStreams      int64  `json:"maxStreams"`
	Draining        bool   `json:"draining"`
	ShedOverload    uint64 `json:"shedOverload"`
	ShedRateLimited uint64 `json:"shedRateLimited"`
	ShedDraining    uint64 `json:"shedDraining"`
	ShedStreamCap   uint64 `json:"shedStreamCap"`       // streams refused at the connection cap
	FifoOverflow    uint64 `json:"fifoOverflowDropped"` // messages shed by session FIFOs
	RetryAfterMS    int64  `json:"retryAfterMs"`
}

// EdgeStats snapshots the admission gate.
func (s *Server) EdgeStats() EdgeStats {
	var overflow uint64
	for _, sess := range s.sessions.List() {
		dropped, _ := sess.Buffer.Stats()
		overflow += dropped
	}
	return EdgeStats{
		Inflight:        s.gate.inflight.Load(),
		InflightPeak:    s.gate.inflightPeak.Load(),
		MaxInflight:     s.gate.maxInflight,
		Streams:         s.gate.streams.Load(),
		StreamsPeak:     s.gate.streamsPeak.Load(),
		MaxStreams:      s.gate.maxStreams,
		Draining:        s.gate.draining.Load(),
		ShedOverload:    s.gate.shedOverload.Load(),
		ShedRateLimited: s.gate.shedRateLimited.Load(),
		ShedDraining:    s.gate.shedDraining.Load(),
		ShedStreamCap:   s.gate.shedStreamCap.Load(),
		FifoOverflow:    overflow,
		RetryAfterMS:    s.gate.retryAfter.Milliseconds(),
	}
}
