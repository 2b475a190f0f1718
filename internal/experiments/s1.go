package experiments

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"discover/internal/portal"
	"discover/internal/server"
	"discover/internal/session"
	"discover/internal/wire"
)

// RunS1 is the versioned-edge experiment: does edge admission control
// shed overload explicitly instead of letting latency collapse?
//
// It stands up a real /api/v1 edge with a per-session token bucket and
// drives ~2x the admitted rate: the surplus must come back as 429
// rate_limited envelopes carrying retry_after_ms, counted in the edge
// stats. A slow client with a tiny FIFO must find a buffer-overflow
// event (not a silent gap) at its next poll, and once draining starts
// every new request must shed with 503 shutting_down.
func RunS1() (Result, error) {
	res := Result{ID: "S1", Title: "Versioned edge: admission control"}
	const (
		ratePerSec = 100.0
		burst      = 10.0
		fifoCap    = 8
	)
	srv, err := server.New(server.Config{
		Name:              "s1edge",
		FifoCapacity:      fifoCap,
		RequestRatePerSec: ratePerSec,
		RequestBurst:      burst,
		RetryAfterHint:    50 * time.Millisecond,
		Logf:              quiet,
	})
	if err != nil {
		return res, err
	}
	defer srv.Close()
	srv.Auth().SetUserSecret("alice", "pw")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	hsrv := &http.Server{Handler: srv.HTTPHandler()}
	go hsrv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		hsrv.Shutdown(ctx)
		cancel()
	}()
	base := "http://" + ln.Addr().String()
	ctx := context.Background()

	// One poller at ~2x its admitted rate: the bucket admits rate+burst,
	// the rest must shed as 429 rate_limited with a retry hint.
	cl := portal.New(base)
	if err := cl.Login(ctx, "alice", "pw"); err != nil {
		return res, err
	}
	const offered = 2 * ratePerSec
	window := 500 * time.Millisecond
	tick := time.NewTicker(time.Duration(float64(time.Second) / offered))
	deadline := time.Now().Add(window)
	var sent, limited, hinted int
	for time.Now().Before(deadline) {
		<-tick.C
		sent++
		_, perr := cl.Poll(ctx, 1, 0)
		if errors.Is(perr, portal.ErrRateLimited) {
			limited++
			if d, ok := portal.RetryAfter(perr); ok && d > 0 {
				hinted++
			}
		} else if perr != nil {
			tick.Stop()
			return res, perr
		}
	}
	tick.Stop()
	ratio := float64(limited) / float64(sent)
	es := srv.EdgeStats()
	res.Rows = append(res.Rows, Row{
		Name:  "load shedding at 2x offered rate",
		Paper: "overload degrades into explicit 429s with a retry hint, not queueing",
		Measured: fmt.Sprintf("%d/%d polls shed (%.0f%%), %d carried retry_after_ms, stats count %d",
			limited, sent, 100*ratio, hinted, es.ShedRateLimited),
		Pass: ratio > 0.15 && ratio < 0.85 && hinted == limited &&
			es.ShedRateLimited >= uint64(limited),
	})

	// Slow client: push past the FIFO capacity, then poll through the
	// long-poll edge on a fresh session (the first poller's bucket is
	// spent). The poll must lead with a buffer-overflow event naming the
	// loss.
	slowCl := portal.New(base)
	if err := slowCl.Login(ctx, "alice", "pw"); err != nil {
		return res, err
	}
	slow, ok := srv.Sessions().Peek(slowCl.ClientID())
	if !ok {
		return res, fmt.Errorf("s1: no session %s", slowCl.ClientID())
	}
	pushes := 3 * fifoCap
	for i := 0; i < pushes; i++ {
		slow.Buffer.Push(wire.NewEvent("s1edge", "tick", fmt.Sprint(i)))
	}
	msgs, err := slowCl.Poll(ctx, 0, 0)
	if err != nil {
		return res, err
	}
	es = srv.EdgeStats()
	gotEvent := len(msgs) > 0 && msgs[0].Op == session.OverflowEvent
	lost := ""
	if gotEvent {
		lost = msgs[0].Text
	}
	res.Rows = append(res.Rows, Row{
		Name:  "slow-client FIFO overflow",
		Paper: "a slow client is told how many messages its bounded buffer shed",
		Measured: fmt.Sprintf("pushed %d into cap %d: %d drained, overflow event=%v (lost %s), stats %d dropped",
			pushes, fifoCap, len(msgs), gotEvent, lost, es.FifoOverflow),
		Pass: gotEvent && lost == fmt.Sprint(pushes-fifoCap) &&
			es.FifoOverflow >= uint64(pushes-fifoCap),
	})

	// Draining: every new request sheds with 503 shutting_down.
	srv.BeginDrain()
	_, derr := cl.Poll(ctx, 1, 0)
	res.Rows = append(res.Rows, Row{
		Name:  "connection draining",
		Paper: "shutdown is an explicit signal (503 shutting_down), not a reset",
		Measured: fmt.Sprintf("post-drain poll: %v, inflight peak %d <= cap %d",
			derr, es.InflightPeak, es.MaxInflight),
		Pass: errors.Is(derr, portal.ErrShuttingDown) &&
			es.InflightPeak <= es.MaxInflight,
	})
	return res, nil
}
