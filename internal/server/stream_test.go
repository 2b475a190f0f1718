package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"discover/internal/session"
	"discover/internal/wire"
)

// sseFrame is one parsed Server-Sent Event.
type sseFrame struct {
	ID  string
	Msg wire.Message
}

// openStream connects an SSE delivery stream for a client, returning a
// frame reader. lastEventID resumes from a token when non-empty.
func openStream(t *testing.T, base, clientID, lastEventID string) (*bufio.Reader, *http.Response, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	u := base + "/api/v1/session/" + url.PathEscape(clientID) + "/stream"
	req, err := http.NewRequestWithContext(ctx, "GET", u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	t.Cleanup(func() { cancel(); resp.Body.Close() })
	return bufio.NewReader(resp.Body), resp, cancel
}

// readFrame parses the next SSE frame, skipping heartbeat comments.
// io.EOF means the server closed the stream.
func readFrame(br *bufio.Reader) (sseFrame, error) {
	var f sseFrame
	sawData := false
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return f, err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if sawData {
				return f, nil
			}
		case strings.HasPrefix(line, ":"):
			// heartbeat comment
		case strings.HasPrefix(line, "id: "):
			f.ID = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &f.Msg); err != nil {
				return f, fmt.Errorf("bad data line %q: %w", line, err)
			}
			sawData = true
		}
	}
}

func pushN(t *testing.T, d *testDeployment, clientID string, from, to int) {
	t.Helper()
	sess, ok := d.srv.Sessions().Peek(clientID)
	if !ok {
		t.Fatalf("no session %s", clientID)
	}
	for i := from; i <= to; i++ {
		sess.Buffer.Push(&wire.Message{Kind: wire.KindUpdate, Seq: uint64(i), Op: "tick"})
	}
}

func TestStreamDeliversPushedEvents(t *testing.T) {
	d, c := deployHTTP(t)
	lr, _ := c.login("alice", "pw")

	br, resp, _ := openStream(t, c.base, lr.ClientID, "")
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	pushN(t, d, lr.ClientID, 1, 3)
	for i := 1; i <= 3; i++ {
		f, err := readFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.ID != fmt.Sprint(i) || f.Msg.Op != "tick" || f.Msg.Seq != uint64(i) {
			t.Fatalf("frame %d = id %q msg %+v", i, f.ID, f.Msg)
		}
	}

	// The stream parks, then wakes for later pushes without polling.
	pushN(t, d, lr.ClientID, 4, 5)
	for i := 4; i <= 5; i++ {
		f, err := readFrame(br)
		if err != nil || f.ID != fmt.Sprint(i) {
			t.Fatalf("frame %d = %+v (%v)", i, f, err)
		}
	}

	es := d.srv.EdgeStats()
	if es.Streams != 1 || es.StreamsPeak != 1 {
		t.Fatalf("edge stats streams = %d peak %d, want 1/1", es.Streams, es.StreamsPeak)
	}
}

func TestStreamResumeSplicesGap(t *testing.T) {
	d, c := deployHTTP(t)
	lr, _ := c.login("alice", "pw")

	br, _, cancel := openStream(t, c.base, lr.ClientID, "")
	pushN(t, d, lr.ClientID, 1, 5)
	var last string
	for i := 1; i <= 5; i++ {
		f, err := readFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		last = f.ID
	}
	cancel() // connection drops mid-session

	pushN(t, d, lr.ClientID, 6, 8) // missed while disconnected

	br2, _, _ := openStream(t, c.base, lr.ClientID, last)
	for i := 6; i <= 8; i++ {
		f, err := readFrame(br2)
		if err != nil {
			t.Fatalf("spliced frame %d: %v", i, err)
		}
		if f.ID != fmt.Sprint(i) || f.Msg.Op == session.LostEvent {
			t.Fatalf("spliced frame %d = id %q op %q", i, f.ID, f.Msg.Op)
		}
	}
}

func TestStreamResumeReportsLossWhenRingRotated(t *testing.T) {
	d, c := deployHTTP(t, func(cfg *Config) {
		cfg.FifoCapacity = 2
	})
	lr, _ := c.login("alice", "pw")
	pushN(t, d, lr.ClientID, 1, session.DefaultReplay+8) // the ring starts at 9

	br, _, _ := openStream(t, c.base, lr.ClientID, "1")
	f, err := readFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if f.Msg.Op != session.LostEvent || f.Msg.Text != "7" || f.ID != "" {
		t.Fatalf("first frame = id %q op %q text %q, want bare events-lost/7", f.ID, f.Msg.Op, f.Msg.Text)
	}
	for i := 9; i <= 10; i++ {
		f, err := readFrame(br)
		if err != nil || f.ID != fmt.Sprint(i) {
			t.Fatalf("survivor frame = %+v (%v)", f, err)
		}
	}
}

func TestStreamOverflowDeliversEventAndSheds(t *testing.T) {
	d, c := deployHTTP(t, func(cfg *Config) { cfg.FifoCapacity = 2 })
	lr, _ := c.login("alice", "pw")
	pushN(t, d, lr.ClientID, 1, 5) // 3 dropped before the stream attaches

	br, _, _ := openStream(t, c.base, lr.ClientID, "")
	f, err := readFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if f.Msg.Op != session.OverflowEvent || f.Msg.Text != "3" {
		t.Fatalf("first frame = op %q text %q, want buffer-overflow/3", f.Msg.Op, f.Msg.Text)
	}
	for i := 4; i <= 5; i++ {
		if f, err = readFrame(br); err != nil || f.ID != fmt.Sprint(i) {
			t.Fatalf("survivor frame = %+v (%v)", f, err)
		}
	}
	// The slow client is shed after learning about the gap: the server
	// closes the stream so the client reconnects with its resume token.
	if _, err = readFrame(br); err != io.EOF {
		t.Fatalf("after overflow: err = %v, want EOF", err)
	}
}

func TestStreamAdmissionCapAndDrain(t *testing.T) {
	d, c := deployHTTP(t, func(cfg *Config) { cfg.MaxStreams = 1 })
	lr, _ := c.login("alice", "pw")

	br, _, _ := openStream(t, c.base, lr.ClientID, "")

	// Second stream: typed 429 at the long-lived-connection cap, without
	// consuming request-admission slots.
	u := c.base + "/api/v1/session/" + url.PathEscape(lr.ClientID) + "/stream"
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	var envelope ErrorResponse
	json.NewDecoder(resp.Body).Decode(&envelope)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || envelope.Error.Code != CodeOverloaded {
		t.Fatalf("over-cap stream -> %d %+v", resp.StatusCode, envelope)
	}
	if envelope.Error.RetryAfterMS <= 0 {
		t.Fatalf("shed stream carries no retry hint: %+v", envelope)
	}
	es := d.srv.EdgeStats()
	if es.Streams != 1 || es.MaxStreams != 1 || es.ShedStreamCap != 1 {
		t.Fatalf("edge stats = %+v", es)
	}

	// Draining wakes the parked stream with a final event and ends it.
	d.srv.BeginDrain()
	f, err := readFrame(br)
	if err != nil || f.Msg.Op != "server-draining" {
		t.Fatalf("drain frame = %+v (%v)", f, err)
	}
	if _, err := readFrame(br); err != io.EOF {
		t.Fatalf("after drain: err = %v, want EOF", err)
	}
	// And new streams are refused with 503.
	resp, err = http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&envelope)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || envelope.Error.Code != CodeShuttingDown {
		t.Fatalf("draining stream -> %d %+v", resp.StatusCode, envelope)
	}
}

func TestStreamBadResumeToken(t *testing.T) {
	_, c := deployHTTP(t)
	lr, _ := c.login("alice", "pw")
	u := c.base + "/api/v1/session/" + url.PathEscape(lr.ClientID) + "/stream?from=banana"
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var envelope ErrorResponse
	json.NewDecoder(resp.Body).Decode(&envelope)
	if resp.StatusCode != http.StatusBadRequest || envelope.Error.Code != CodeBadRequest {
		t.Fatalf("bad token -> %d %+v", resp.StatusCode, envelope)
	}
}

func TestStreamHeartbeatKeepsIdleConnectionAlive(t *testing.T) {
	d, c := deployHTTP(t, func(cfg *Config) { cfg.StreamHeartbeat = 20 * time.Millisecond })
	lr, _ := c.login("alice", "pw")
	br, _, _ := openStream(t, c.base, lr.ClientID, "")

	// An idle stream still produces bytes (comment lines) on the wire.
	deadline := time.After(5 * time.Second)
	got := make(chan string, 1)
	go func() {
		line, err := br.ReadString('\n')
		if err == nil {
			got <- line
		}
	}()
	select {
	case line := <-got:
		if !strings.HasPrefix(line, ":") {
			t.Fatalf("idle stream produced %q, want a heartbeat comment", line)
		}
	case <-deadline:
		t.Fatal("no heartbeat on an idle stream")
	}
	// A real event still gets through between heartbeats.
	pushN(t, d, lr.ClientID, 1, 1)
	f, err := readFrame(br)
	if err != nil || f.ID != "1" {
		t.Fatalf("post-heartbeat frame = %+v (%v)", f, err)
	}
}

func TestSessionEventsLongPoll(t *testing.T) {
	d, c := deployHTTP(t)
	lr, _ := c.login("alice", "pw")
	base := "/api/v1/session/" + url.PathEscape(lr.ClientID) + "/events"

	// A push mid-wait releases the long poll early with the first
	// message; the second may land after that poll drained, so later
	// polls collect it, in order.
	go func() {
		time.Sleep(50 * time.Millisecond)
		pushN(t, d, lr.ClientID, 1, 2)
	}()
	start := time.Now()
	var er EventsResponse
	if code := c.get(base+"?wait=10s", &er); code != http.StatusOK {
		t.Fatalf("long poll -> %d", code)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("long poll blocked %v despite a push", waited)
	}
	if len(er.Messages) == 0 {
		t.Fatalf("long poll = %+v", er)
	}
	got := er.Messages
	for deadline := time.Now().Add(5 * time.Second); len(got) < 2 && time.Now().Before(deadline); {
		if code := c.get(base+"?wait=1s", &er); code != http.StatusOK {
			t.Fatalf("follow-up long poll -> %d", code)
		}
		got = append(got, er.Messages...)
	}
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 2 || er.LastEventID != 2 {
		t.Fatalf("long polls = %v, last response %+v", got, er)
	}

	// An empty wait returns empty messages and keeps the resume token at 0.
	if code := c.get(base+"?wait=10ms", &er); code != http.StatusOK {
		t.Fatalf("empty long poll -> %d", code)
	}
	if len(er.Messages) != 0 {
		t.Fatalf("empty long poll returned %+v", er)
	}

	// Malformed wait is a typed 400.
	resp, err := http.Get(c.base + base + "?wait=banana")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad wait -> %d", resp.StatusCode)
	}
}
