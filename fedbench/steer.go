package main

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"discover/internal/portal"
	"discover/internal/wire"
)

// steer is in-memory cross-domain steering (paper §5.2): sessions on the
// edge domain each hold the steering lock of one application hosted on
// the host domain and issue status / get_param / set_param the way
// portal.Client.Do does, with responses coming back over SSE.
type steer struct {
	n        int // sessions, one issuing goroutine each
	sessions []*steerSession

	renewals, renewalsFailed atomic.Int64
}

const (
	steerRate  = 300.0 // ops/s over all sessions
	steerPause = 2 * time.Millisecond
	steerLimit = 100 * time.Millisecond
	steerWait  = time.Second // how long an op waits before its response counts as never delivered
	steerParam = "source_amp"
	// steerRenew is how often a session renews its steering lock, well
	// inside the lock manager's default 30 s lease, as a steering client
	// must.
	steerRenew = 10 * time.Second
)

type arrival struct {
	m  *wire.Message
	at time.Time
}

type pendingResp struct {
	cancel context.CancelFunc // ends the op's WaitResponse
	got    *arrival           // the response, when the stream callback took it
}

type steerSession struct {
	c   *portal.Client
	app string

	// Own responses the portal's waiter did not take, by command seq (see
	// roundTrip): waiting holds the ops whose Command has returned,
	// early the responses that reached the stream before their op
	// looked for them.
	rmu     sync.Mutex
	waiting map[uint64]*pendingResp
	early   map[uint64]arrival

	// Output check state. A get_param is checked only when it overlapped
	// no set_param, and the last set_param overlapped none either and
	// succeeded: concurrent commands of one session may apply in either
	// order, and a failed one may or may not have applied.
	mu          sync.Mutex
	setsPending int
	overlapped  bool   // a set_param began while another was pending
	epoch       uint64 // bumped by every set_param issued
	written     string
	known       bool
}

func (s *steer) shape() fedShape {
	return fedShape{Domains: []string{"host", "edge"}, Apps: []int{s.n, 0}, Pause: steerPause}
}

func (s *steer) limit() time.Duration { return steerLimit }

func (s *steer) params() map[string]any {
	return map[string]any{
		"domains": 2, "apps_on_host": s.n, "sessions_on_edge": s.n,
		"rate_ops_per_s": steerRate, "mix_status_get_set": "20/60/20",
		"phase_pause_ms": steerPause.Milliseconds(), "limit_ms": steerLimit.Milliseconds(),
		"unit": "one command through portal.Client.Do's two calls (Command, then WaitResponse), from due time to response arrival",
	}
}

func (s *steer) setup(ctx context.Context, e *env) error {
	apps := e.fed.ready.Domains[0].Apps
	for i := 0; i < s.n; i++ {
		ss := &steerSession{c: e.client(1), app: apps[i],
			waiting: map[uint64]*pendingResp{}, early: map[uint64]arrival{}}
		s.sessions = append(s.sessions, ss)
		if err := ss.c.Login(ctx, benchUser, benchSecret); err != nil {
			return err
		}
		if _, err := ss.c.ConnectApp(ctx, ss.app); err != nil {
			return err
		}
		granted, holder, err := ss.c.AcquireLock(ctx)
		if err != nil {
			return err
		}
		if !granted {
			return fmt.Errorf("steering lock on %s held by %s", ss.app, holder)
		}
		id := ss.c.ClientID()
		ss.c.StreamEvents(func(m *wire.Message) {
			e.deliveries.Add(1)
			if (m.Kind == wire.KindResponse || m.Kind == wire.KindError) && m.Client == id {
				ss.stray(m, time.Now())
			}
		})
	}
	cs := make([]*portal.Client, len(s.sessions))
	for i, ss := range s.sessions {
		cs[i] = ss.c
	}
	return waitStreaming(ctx, cs)
}

type steerOp struct {
	due   time.Time
	op    string
	value string // set_param only
}

func (s *steer) run(e *env, w *window) {
	// Draw every session's schedule before any goroutine starts, so the
	// inputs depend on the seed alone.
	plans := make([][]steerOp, len(s.sessions))
	for i := range s.sessions {
		for _, due := range w.dues(poisson(w.rng, steerRate/float64(len(s.sessions)), w.span())) {
			op := steerOp{due: due}
			switch p := w.rng.Float64(); {
			case p < 0.2:
				op.op = "status"
			case p < 0.8:
				op.op = "get_param"
			default:
				op.op = "set_param"
				op.value = strconv.FormatFloat(0.1+float64(w.rng.Intn(98000))/10000, 'f', 4, 64)
			}
			plans[i] = append(plans[i], op)
		}
	}
	stopRenew := make(chan struct{})
	var renewers sync.WaitGroup
	for _, ss := range s.sessions {
		renewers.Add(1)
		go func(ss *steerSession) {
			defer renewers.Done()
			s.renew(ss, stopRenew)
		}(ss)
	}
	defer renewers.Wait()
	defer close(stopRenew)

	// One issuing goroutine per session keeps its schedule; each op's
	// wait for its response runs on a goroutine of its own, so a slow
	// response never delays the session's later ops.
	var issuers, ops sync.WaitGroup
	for i, ss := range s.sessions {
		issuers.Add(1)
		go func(ss *steerSession, plan []steerOp) {
			defer issuers.Done()
			for _, op := range plan {
				w.waitUntil(op.due)
				ops.Add(1)
				go func(op steerOp) {
					defer ops.Done()
					ss.do(e, w, op)
				}(op)
			}
		}(ss, plans[i])
	}
	issuers.Wait()
	ops.Wait()
}

// renew re-acquires the session's steering lock every steerRenew until
// stop closes; re-acquiring by the holder renews its lease.
func (s *steer) renew(ss *steerSession, stop <-chan struct{}) {
	t := time.NewTicker(steerRenew)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		granted, _, err := ss.c.AcquireLock(ctx)
		cancel()
		s.renewals.Add(1)
		if err != nil || !granted {
			s.renewalsFailed.Add(1)
		}
	}
}

// stray takes an own response that no WaitResponse was registered for:
// it belongs to an op between Command and WaitResponse, or to one whose
// Command has not returned yet.
func (ss *steerSession) stray(m *wire.Message, at time.Time) {
	ss.rmu.Lock()
	defer ss.rmu.Unlock()
	if p := ss.waiting[m.Seq]; p != nil {
		p.got = &arrival{m, at}
		p.cancel()
		return
	}
	ss.early[m.Seq] = arrival{m, at}
}

// roundTrip is portal.Client.Do, which is Command followed by
// WaitResponse, with the one difference that a response Do's waiter
// misses is still used. WaitResponse registers the waiter only after
// Command has returned, so a response the SSE pump dispatches first goes
// to the stream callback and Do waits out its deadline (NOTES.md, "Known
// defects"). Such a response is taken from the callback instead, with the
// time it arrived, and reported as lost: the command completed, and the
// defect is counted apart from failed units.
func (ss *steerSession) roundTrip(ctx context.Context, op string, params map[string]string) (m *wire.Message, at time.Time, lost bool, err error) {
	seq, err := ss.c.Command(ctx, op, params)
	if err != nil {
		return nil, time.Time{}, false, err
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	p := &pendingResp{cancel: cancel}
	ss.rmu.Lock()
	a, early := ss.early[seq]
	if early {
		delete(ss.early, seq)
	} else {
		ss.waiting[seq] = p
	}
	ss.rmu.Unlock()
	if early {
		return a.m, a.at, true, nil
	}
	m, err = ss.c.WaitResponse(wctx, seq)
	at = time.Now()
	ss.rmu.Lock()
	delete(ss.waiting, seq)
	got := p.got
	ss.rmu.Unlock()
	if err != nil && got != nil {
		return got.m, got.at, true, nil
	}
	return m, at, false, err
}

// do issues one op and waits for its response up to steerWait.
func (ss *steerSession) do(e *env, w *window, op steerOp) {
	w.rec.op(op.due)
	params := map[string]string{"name": steerParam}
	switch op.op {
	case "status":
		params = nil
	case "set_param":
		params["value"] = op.value
	}
	check, want, epoch := ss.begin(op)
	ctx, cancel := context.WithTimeout(context.Background(), steerWait)
	defer cancel()
	ctx, endUnit := w.tr.begin(ctx, "unit.steer")
	ctx, endCall := w.tr.begin(ctx, "portal.command")
	m, at, lost, err := ss.roundTrip(ctx, op.op, params)
	if m != nil && !lost {
		e.deliveries.Add(1) // dispatched to the waiter, not to the stream callback
	}
	endCall()
	endUnit()
	if err == nil && m.Kind != wire.KindResponse {
		err = fmt.Errorf("%s: %s", op.op, m.Text)
	}
	if lost {
		w.rec.lostResponse(op.due)
	}
	w.rec.done(op.due, at, err)

	ss.mu.Lock()
	defer ss.mu.Unlock()
	switch op.op {
	case "set_param":
		ss.setsPending--
		ss.written = op.value
		ss.known = err == nil && ss.setsPending == 0 && !ss.overlapped
		if ss.setsPending == 0 {
			ss.overlapped = false
		}
	case "get_param":
		if !check || err != nil || ss.epoch != epoch {
			return
		}
		got, _ := m.GetFloat("value")
		if w, _ := strconv.ParseFloat(want, 64); got != w {
			e.chk.fail(fmt.Sprintf("steer: %s read %s=%v after writing %v", ss.app, steerParam, got, w))
		}
	}
}

// begin notes an op's issue in the check state. For a get_param it says
// whether the read is checkable and the value it must return.
func (ss *steerSession) begin(op steerOp) (check bool, want string, epoch uint64) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if op.op == "set_param" {
		ss.overlapped = ss.overlapped || ss.setsPending > 0
		ss.setsPending++
		ss.epoch++
	}
	return ss.setsPending == 0 && ss.known, ss.written, ss.epoch
}

func (s *steer) check(context.Context, *env) {}

func (s *steer) close() {
	for _, ss := range s.sessions {
		ss.c.StopPump()
	}
}
