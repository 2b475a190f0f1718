package experiments

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"discover/internal/server"
	"discover/internal/session"
	"discover/internal/wire"
)

// RunS2 is the streaming-edge experiment: what does replacing 1 Hz
// poll-and-pull delivery with a pushed SSE stream buy at six-figure
// client counts?
//
// Part A drives the shared delivery queue (the layer both edges drain)
// with `clients` sessions receiving sparse events while delivery runs
// two ways over identical workloads:
//
//   - polling: worker stripes sweep every session's queue once per
//     pollInterval — the mux sees clients/interval requests per second,
//     almost all of which find an empty queue.
//   - streaming: one stream connect per client, then push-paced delivery
//     (the producer's wakeup feeds a dispatcher pool; no per-client
//     ticker, no per-tick goroutine).
//
// Requests at the mux, process CPU (getrusage, each arm in a child
// process of its own), and p50/p99 delivery lag (push-to-drain) are
// compared. The paper's portals repolled the master servlet on a timer;
// the claim under test is that a pushed edge collapses request volume by
// >=10x without hurting tail latency.
//
// Part B stands up a real /api/v1 edge and checks the shed behavior the
// simulation cannot: an SSE round trip with resume splicing over real
// HTTP, the long-lived-connection cap rejecting surplus streams with a
// typed 429, and draining ending parked streams explicitly.
func RunS2(clients int, pollInterval, dur time.Duration) (Result, error) {
	if clients <= 0 {
		clients = 5000
	}
	if pollInterval <= 0 {
		pollInterval = 100 * time.Millisecond
	}
	if dur <= 0 {
		dur = 15 * pollInterval
	}
	// Events are sparse relative to the poll cadence (one per client per
	// 5 intervals): most polls return empty, which is exactly the waste a
	// pushed edge eliminates.
	eventEvery := 5 * pollInterval
	res := Result{ID: "S2", Title: "Streaming push edge: SSE delivery vs poll-and-pull"}

	// Each arm runs in its own child process, so its CPU row measures
	// that arm alone: not the heap, goroutines and timers that earlier
	// work left in this process.
	arm := s2Arm{Clients: clients, PollInterval: pollInterval, Dur: dur, EventEvery: eventEvery}
	poll, err := arm.isolated()
	if err != nil {
		return res, err
	}
	arm.Stream = true
	stream, err := arm.isolated()
	if err != nil {
		return res, err
	}

	ratio := float64(poll.Reqs) / float64(max64u(stream.Reqs, 1))
	res.Rows = append(res.Rows, Row{
		Name: fmt.Sprintf("edge requests at %d clients", clients),
		Paper: fmt.Sprintf("a pushed stream costs one connect per client; %s polling costs clients/interval req/s forever",
			pollInterval),
		Measured: fmt.Sprintf("polling %d reqs (%.0f/s) vs streaming %d connects (%.0f/s) over %s — %.1fx fewer",
			poll.Reqs, float64(poll.Reqs)/dur.Seconds(),
			stream.Reqs, float64(stream.Reqs)/dur.Seconds(), dur, ratio),
		Pass: ratio >= 10,
	})

	res.Rows = append(res.Rows, Row{
		Name:  "delivery lag, push vs poll",
		Paper: "pushed delivery is event-paced; polled delivery waits out the next sweep (~interval/2 median)",
		Measured: fmt.Sprintf("streaming p50 %s / p99 %s (%d delivered) vs polling p50 %s / p99 %s (%d delivered)",
			stream.P50.Round(time.Microsecond), stream.P99.Round(time.Microsecond), stream.Delivered,
			poll.P50.Round(time.Microsecond), poll.P99.Round(time.Microsecond), poll.Delivered),
		Pass: stream.Delivered > 0 && poll.Delivered > 0 && stream.P99 <= poll.P99,
	})

	res.Rows = append(res.Rows, Row{
		Name:  "edge CPU for the same deliveries",
		Paper: "sweeping empty queues burns CPU that parked streams do not",
		Measured: fmt.Sprintf("polling %s CPU vs streaming %s CPU (GOMAXPROCS=%d)",
			poll.CPU.Round(time.Millisecond), stream.CPU.Round(time.Millisecond), runtime.GOMAXPROCS(0)),
		Pass: stream.CPU <= poll.CPU,
	})

	// --- Part B: the real HTTP edge. ---
	rt, shed, err := s2Edge()
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows, rt, shed)

	s2mu.Lock()
	s2last = &S2Snapshot{
		Clients:          clients,
		PollIntervalMS:   pollInterval.Milliseconds(),
		DurationMS:       dur.Milliseconds(),
		PollRequests:     poll.Reqs,
		StreamConnects:   stream.Reqs,
		RequestReduction: ratio,
		PollCPUMS:        poll.CPU.Milliseconds(),
		StreamCPUMS:      stream.CPU.Milliseconds(),
		PollP50MS:        float64(poll.P50) / float64(time.Millisecond),
		PollP99MS:        float64(poll.P99) / float64(time.Millisecond),
		StreamP50MS:      float64(stream.P50) / float64(time.Millisecond),
		StreamP99MS:      float64(stream.P99) / float64(time.Millisecond),
	}
	s2mu.Unlock()
	return res, nil
}

// S2Snapshot is the compact BENCH_S2.json record of the last RunS2.
type S2Snapshot struct {
	Clients          int     `json:"clients"`
	PollIntervalMS   int64   `json:"pollIntervalMs"`
	DurationMS       int64   `json:"durationMs"`
	PollRequests     uint64  `json:"pollRequests"`
	StreamConnects   uint64  `json:"streamConnects"`
	RequestReduction float64 `json:"requestReduction"`
	PollCPUMS        int64   `json:"pollCpuMs"`
	StreamCPUMS      int64   `json:"streamCpuMs"`
	PollP50MS        float64 `json:"pollP50Ms"`
	PollP99MS        float64 `json:"pollP99Ms"`
	StreamP50MS      float64 `json:"streamP50Ms"`
	StreamP99MS      float64 `json:"streamP99Ms"`
}

var (
	s2mu   sync.Mutex
	s2last *S2Snapshot
)

// S2LastSnapshot returns the compact record of the most recent RunS2 in
// this process (cmd/benchharness writes it to BENCH_S2.json).
func S2LastSnapshot() (S2Snapshot, bool) {
	s2mu.Lock()
	defer s2mu.Unlock()
	if s2last == nil {
		return S2Snapshot{}, false
	}
	return *s2last, true
}

// s2ArmEnv, set to an s2Arm as JSON, turns this process into that one
// delivery arm: init runs it, prints its s2Side as JSON and exits. RunS2
// runs each arm so, in a child process of its own binary.
const s2ArmEnv = "DISCOVER_S2_ARM"

func init() {
	if spec := os.Getenv(s2ArmEnv); spec != "" {
		var arm s2Arm
		if json.Unmarshal([]byte(spec), &arm) != nil || json.NewEncoder(os.Stdout).Encode(arm.run()) != nil {
			os.Exit(2)
		}
		os.Exit(0)
	}
}

// s2Arm is one delivery mode's workload.
type s2Arm struct {
	Stream                        bool
	Clients                       int
	PollInterval, Dur, EventEvery time.Duration
}

func (a s2Arm) run() *s2Side {
	if a.Stream {
		return s2Deliver(a.Clients, a.Dur, a.EventEvery, s2StreamDispatch)
	}
	return s2Deliver(a.Clients, a.Dur, a.EventEvery, func(qs []*session.Queue, st *s2Side, stop chan struct{}) (func(int), func()) {
		return s2PollSweep(qs, st, stop, a.PollInterval)
	})
}

// isolated runs the arm in a child process of this binary.
func (a s2Arm) isolated() (*s2Side, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	spec, _ := json.Marshal(a) // plain fields: cannot fail
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), s2ArmEnv+"="+string(spec))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	st := &s2Side{}
	if err == nil {
		err = json.Unmarshal(out, st)
	}
	if err != nil {
		return nil, fmt.Errorf("s2: arm child: %w", err)
	}
	return st, nil
}

// s2Side is one delivery mode's measurement.
type s2Side struct {
	Reqs      uint64 // requests arriving at the simulated mux
	Delivered uint64
	CPU       time.Duration
	P50, P99  time.Duration

	mu   sync.Mutex
	lats []time.Duration
}

func (st *s2Side) record(local []time.Duration) {
	st.mu.Lock()
	st.lats = append(st.lats, local...)
	st.mu.Unlock()
}

// s2Deliver runs one delivery mode: producers push one event per client
// per eventEvery while the mode's consumers drain the queues their own
// way, for dur. setup starts the consumers and returns an optional
// per-push notify hook (the streaming edge's wakeup) plus a waiter for
// consumer shutdown. CPU is the process rusage delta across the window;
// producers cost the same on both sides, so the difference is the
// delivery edge.
func s2Deliver(clients int, dur, eventEvery time.Duration,
	setup func(qs []*session.Queue, st *s2Side, stop chan struct{}) (notify func(int), wait func())) *s2Side {
	// Each queue takes and hands back one event before the window, so
	// the window measures steady-state delivery rather than first-touch
	// allocation of every queue's buffers, and starts from a collected
	// heap.
	qs := make([]*session.Queue, clients)
	warm := wire.NewEvent("s2", "warm", "")
	for i := range qs {
		qs[i] = session.NewQueue(64, 64)
		qs[i].Push(warm)
		qs[i].DrainEntries(0)
	}
	runtime.GC()
	st := &s2Side{}
	stop := make(chan struct{})
	notify, consumersDone := setup(qs, st, stop)

	// Producer stripes: every queue receives one event per eventEvery,
	// in the rounds that start inside the window. The last round starts
	// a whole eventEvery before the window ends, so both modes make the
	// same deliveries and no round straddles the CPU reading.
	rounds := int(dur / eventEvery)
	if rounds < 1 {
		rounds = 1
	}
	var wg sync.WaitGroup
	producers := runtime.GOMAXPROCS(0)
	if producers > 8 {
		producers = 8
	}
	if producers > clients {
		producers = clients
	}
	cpu0 := s2CPU()
	start := time.Now()
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			ev := wire.NewEvent("s2", "tick", "")
			for r := 0; r < rounds; r++ {
				select {
				case <-stop:
					return
				case <-time.After(time.Until(start.Add(time.Duration(r) * eventEvery))):
				}
				for i := p; i < clients; i += producers {
					qs[i].Push(ev)
					if notify != nil {
						notify(i)
					}
				}
			}
		}(p)
	}

	time.Sleep(time.Until(start.Add(dur)))
	st.CPU = s2CPU() - cpu0
	close(stop)
	wg.Wait()
	consumersDone()

	st.P50 = percentile(st.lats, 50)
	st.P99 = percentile(st.lats, 99)
	st.Delivered = uint64(len(st.lats))
	return st
}

// s2PollSweep is the poll-and-pull edge: worker stripes sweep every
// queue once per interval, each sweep visit counting as one mux request
// (what a 1 Hz portal timer generates).
func s2PollSweep(qs []*session.Queue, st *s2Side, stop chan struct{}, interval time.Duration) (func(int), func()) {
	workers := 2 * runtime.GOMAXPROCS(0)
	if workers > len(qs) {
		workers = len(qs)
	}
	var reqs atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local []time.Duration
			defer func() { st.record(local) }()
			for {
				t0 := time.Now()
				for i := w; i < len(qs); i += workers {
					reqs.Add(1)
					ents, _ := qs[i].DrainEntries(64)
					now := time.Now()
					for _, e := range ents {
						local = append(local, now.Sub(e.At))
					}
				}
				rest := interval - time.Since(t0)
				if rest < 0 {
					rest = 0
				}
				select {
				case <-stop:
					return
				case <-time.After(rest):
				}
			}
		}(w)
	}
	return nil, func() {
		wg.Wait()
		st.Reqs = reqs.Load()
	}
}

// s2StreamDispatch is the pushed edge: one connect per client up front,
// then delivery paced entirely by pushes. The producer's notify is the
// queue wakeup an SSE handler parks on; a drain pool plays the part of
// the woken handlers. No ticker and no sweep; idle clients cost nothing
// between events.
func s2StreamDispatch(qs []*session.Queue, st *s2Side, stop chan struct{}) (func(int), func()) {
	st.Reqs = uint64(len(qs)) // one stream connect per client for the whole window
	ready := make(chan int, len(qs))
	var wg sync.WaitGroup
	drainers := 2 * runtime.GOMAXPROCS(0)
	for d := 0; d < drainers; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []time.Duration
			defer func() { st.record(local) }()
			for {
				select {
				case i := <-ready:
					ents, _ := qs[i].DrainEntries(64)
					now := time.Now()
					for _, e := range ents {
						local = append(local, now.Sub(e.At))
					}
				case <-stop:
					return
				}
			}
		}()
	}
	notify := func(i int) {
		select {
		case ready <- i:
		default: // a drain for this client is already queued
		}
	}
	return notify, wg.Wait
}

// s2CPU reads the process's consumed CPU time (user + system).
func s2CPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func max64u(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------------
// Part B: the real HTTP streaming edge.
// ---------------------------------------------------------------------------

// s2Edge deploys one domain with a tiny stream cap and measures, over
// real SSE connections: the push round trip, resume splicing after a
// cut, the long-lived-connection cap shedding a typed 429, and draining
// ending parked streams with an explicit event.
func s2Edge() (rt, shed Row, err error) {
	srv, err := server.New(server.Config{
		Name:           "s2edge",
		MaxStreams:     2,
		RetryAfterHint: 50 * time.Millisecond,
		Logf:           quiet,
	})
	if err != nil {
		return rt, shed, err
	}
	defer srv.Close()
	srv.Auth().SetUserSecret("alice", "pw")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return rt, shed, err
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

	sess, err := srv.Login(ctx, "alice", "pw")
	if err != nil {
		return rt, shed, err
	}

	// Round trip: park a stream, push, time the frame's arrival.
	s1, err := s2OpenStream(base, sess.ClientID, 0)
	if err != nil {
		return rt, shed, err
	}
	t0 := time.Now()
	sess.Buffer.Push(wire.NewEvent("s2edge", "tick", "one"))
	id1, m1, err := s1.readFrame()
	lat := time.Since(t0)
	if err != nil {
		s1.close()
		return rt, shed, err
	}
	s1.close()

	// Cut the stream, push two more, reconnect with the resume token:
	// the gap must splice with no loss marker.
	sess.Buffer.Push(wire.NewEvent("s2edge", "tick", "two"))
	sess.Buffer.Push(wire.NewEvent("s2edge", "tick", "three"))
	s1b, err := s2OpenStream(base, sess.ClientID, id1)
	if err != nil {
		return rt, shed, err
	}
	id2, m2, err1 := s1b.readFrame()
	id3, m3, err2 := s1b.readFrame()
	s1b.close()
	if err1 != nil || err2 != nil {
		return rt, shed, fmt.Errorf("s2: resume read: %v, %v", err1, err2)
	}
	spliced := id2 == id1+1 && id3 == id1+2 &&
		m2.Text == "two" && m3.Text == "three" &&
		m2.Op != session.LostEvent && m3.Op != session.LostEvent
	rt = Row{
		Name:  "SSE round trip and resume over real HTTP",
		Paper: "a pushed event reaches the portal without a poll; a reconnect splices from the resume token",
		Measured: fmt.Sprintf("push-to-frame %s (event %q id %d); reconnect from id %d replayed ids %d,%d with no loss: %v",
			lat.Round(time.Microsecond), m1.Op, id1, id1, id2, id3, spliced),
		Pass: m1.Op == "tick" && id1 >= 1 && lat < time.Second && spliced,
	}

	// The server frees a stream's slot only once its handler sees the
	// disconnect, so the cap phase starts when both closed streams are
	// gone.
	for deadline := time.Now().Add(5 * time.Second); srv.EdgeStats().Streams != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return rt, shed, fmt.Errorf("s2: %d streams still open 5s after their clients closed", srv.EdgeStats().Streams)
		}
	}

	// Cap: two parked streams fill MaxStreams, the third sheds 429.
	sessB, err := srv.Login(ctx, "alice", "pw")
	if err != nil {
		return rt, shed, err
	}
	p1, err := s2OpenStream(base, sess.ClientID, id3)
	if err != nil {
		return rt, shed, err
	}
	defer p1.close()
	p2, err := s2OpenStream(base, sessB.ClientID, 0)
	if err != nil {
		return rt, shed, err
	}
	defer p2.close()
	_, err = s2OpenStream(base, sess.ClientID, 0)
	capShed := false
	var capErr string
	if err != nil {
		capErr = err.Error()
		capShed = strings.Contains(capErr, "overloaded")
	}
	es := srv.EdgeStats()

	// Draining: parked streams end with an explicit event, new ones 503.
	srv.BeginDrain()
	_, dm, derr := p1.readFrame()
	drainedEvent := derr == nil && dm.Op == "server-draining"
	_, _, eofErr := p1.readFrame()
	_, postErr := s2OpenStream(base, sessB.ClientID, 0)
	postShed := postErr != nil && strings.Contains(postErr.Error(), "shutting_down")
	shed = Row{
		Name:  "stream admission cap and drain",
		Paper: "long-lived streams have their own cap (typed 429) and draining ends them explicitly, not by reset",
		Measured: fmt.Sprintf("3rd stream at cap 2: %q (shedStreamCap=%d, peak=%d/%d); drain event=%v then EOF=%v; post-drain connect: %v",
			capErr, es.ShedStreamCap, es.StreamsPeak, es.MaxStreams, drainedEvent, errors.Is(eofErr, io.EOF), postErr),
		Pass: capShed && es.ShedStreamCap >= 1 && es.StreamsPeak == 2 &&
			drainedEvent && eofErr != nil && postShed,
	}
	return rt, shed, nil
}

// s2Stream is one raw SSE connection.
type s2Stream struct {
	resp   *http.Response
	br     *bufio.Reader
	cancel context.CancelFunc
}

func (s *s2Stream) close() {
	s.cancel()
	s.resp.Body.Close()
}

// readFrame reads one SSE event frame (skipping heartbeat comments).
func (s *s2Stream) readFrame() (id uint64, m wire.Message, err error) {
	var data []byte
	for {
		line, err := s.br.ReadString('\n')
		if err != nil {
			return 0, m, err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if len(data) == 0 {
				continue // comment separator
			}
			err = json.Unmarshal(data, &m)
			return id, m, err
		case strings.HasPrefix(line, "id:"):
			id, _ = strconv.ParseUint(strings.TrimSpace(line[3:]), 10, 64)
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimSpace(line[5:])...)
		}
	}
}

// s2OpenStream opens GET /api/v1/session/{id}/stream and verifies the
// SSE handshake; a non-200 is returned as an error carrying the body.
func s2OpenStream(base, clientID string, lastID uint64) (*s2Stream, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		base+"/api/v1/session/"+url.PathEscape(clientID)+"/stream", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	if lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(lastID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("s2: stream status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("s2: stream content-type %q", ct)
	}
	return &s2Stream{resp: resp, br: bufio.NewReader(resp.Body), cancel: cancel}, nil
}
