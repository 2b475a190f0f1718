package server

// The streaming delivery edge: GET /api/v1/session/{id}/stream serves
// Server-Sent Events by draining the same per-session delivery queue
// that the /events long-poll reads, so a client sees an identical message
// sequence on either path. Design constraints, in order:
//
//   - Producers never block. The queue's bounded window drops the oldest
//     entry on overflow; a stream that observes drops delivers the
//     "buffer-overflow" event and then sheds the connection, pushing the
//     cost of slowness onto the slow client (it reconnects with its
//     resume token) instead of onto the application.
//   - Idle costs nothing per tick. A parked stream blocks on the queue's
//     wakeup channel plus one process-wide heartbeat broadcast
//     (streamHub); there is no per-client ticker, and the heartbeat
//     goroutine itself only runs while at least one stream is open.
//   - Reconnects are exact. Every frame carries the queue's monotonic
//     sequence number as its SSE id; a client resuming with Last-Event-ID
//     gets the gap spliced from the replay ring, or an explicit
//     "events-lost" event when the ring has rotated past its token.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"discover/internal/session"
	"discover/internal/telemetry"
	"discover/internal/wire"
)

// DefaultStreamHeartbeat is the SSE keep-alive interval when
// Config.StreamHeartbeat is zero: frequent enough to hold intermediaries'
// idle timeouts open and to notice dead connections, rare enough to be
// free at 100k streams (one broadcast wakes them all).
const DefaultStreamHeartbeat = 15 * time.Second

// streamBatch bounds how many entries one SSE write loop iteration
// drains, so a deep backlog cannot monopolize the connection's write
// buffer before a flush.
const streamBatch = 64

// Stream telemetry, process-wide like every other discover_* series.
var (
	streamEventsTotal = telemetry.GetCounter("discover_edge_stream_events_total")
	streamLagHist     = telemetry.GetHistogram("discover_stream_delivery_lag_seconds")
	streamResumeTotal = map[string]*telemetry.Counter{
		"spliced":     telemetry.GetCounter("discover_edge_stream_resume_total", "outcome", "spliced"),
		"wal_spliced": telemetry.GetCounter("discover_edge_stream_resume_total", "outcome", "wal_spliced"),
		"lost":        telemetry.GetCounter("discover_edge_stream_resume_total", "outcome", "lost"),
		"fresh":       telemetry.GetCounter("discover_edge_stream_resume_total", "outcome", "fresh"),
	}
)

// streamHub is the shared heartbeat for every open stream on one server:
// a single ticker goroutine (running only while streams exist) closes a
// broadcast channel each interval, waking every parked stream at once —
// the zero-goroutine-per-tick structure the delivery queue's wakeup
// channel is paired with.
type streamHub struct {
	interval time.Duration

	mu   sync.Mutex
	tick chan struct{} // closed and replaced at each heartbeat
	n    int           // open streams
	stop chan struct{} // stops the ticker goroutine when n drops to 0
}

func newStreamHub(interval time.Duration) *streamHub {
	if interval <= 0 {
		interval = DefaultStreamHeartbeat
	}
	return &streamHub{interval: interval, tick: make(chan struct{})}
}

// join registers a stream, starting the heartbeat goroutine on the first.
func (h *streamHub) join() {
	h.mu.Lock()
	h.n++
	if h.n == 1 {
		h.stop = make(chan struct{})
		go h.run(h.stop)
	}
	h.mu.Unlock()
}

// leave unregisters a stream, stopping the heartbeat after the last.
func (h *streamHub) leave() {
	h.mu.Lock()
	h.n--
	if h.n == 0 {
		close(h.stop)
	}
	h.mu.Unlock()
}

func (h *streamHub) run(stop chan struct{}) {
	t := time.NewTicker(h.interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			h.mu.Lock()
			close(h.tick)
			h.tick = make(chan struct{})
			h.mu.Unlock()
		}
	}
}

// tickCh returns the current heartbeat broadcast channel; it closes at
// the next tick.
func (h *streamHub) tickCh() <-chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.tick
}

// parseResumeToken extracts the client's resume position from the
// Last-Event-ID header (standard SSE reconnect) or the ?from= query
// parameter (first connect after a polling session, or curl).
func parseResumeToken(r *http.Request) (seq uint64, ok bool, err error) {
	v := r.Header.Get("Last-Event-ID")
	if v == "" {
		v = r.URL.Query().Get("from")
	}
	if v == "" {
		return 0, false, nil
	}
	seq, err = strconv.ParseUint(v, 10, 64)
	return seq, err == nil, err
}

// writeEntry emits one SSE frame: "id: <seq>" (omitted for synthetic
// events, which are not resumable positions) then the message as one
// JSON data line.
func writeEntry(w io.Writer, seq uint64, m *wire.Message) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if seq > 0 {
		if _, err := fmt.Fprintf(w, "id: %d\n", seq); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(w, "data: %s\n\n", data)
	return err
}

// handleSessionStream serves the SSE delivery stream for one session.
func (s *Server) handleSessionStream(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(w, r.PathValue("id"))
	if !ok {
		return
	}
	resume, hasResume, err := parseResumeToken(r)
	if err != nil {
		writeErrCode(w, CodeBadRequest, "bad resume token: "+err.Error(), 0)
		return
	}
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		writeErrCode(w, CodeInternal, "transport does not support streaming", 0)
		return
	}
	if ok, reason := s.gate.enterStream(); !ok {
		writeErrCode(w, reason, "edge admission: "+string(reason),
			s.gate.retryAfter.Milliseconds())
		return
	}
	defer s.gate.leaveStream()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	s.streams.join()
	defer s.streams.leave()

	q := sess.Buffer
	if hasResume {
		ents, lost := q.Resume(resume)
		outcome := "fresh"
		switch {
		case lost > 0:
			outcome = "lost"
		case len(ents) > 0:
			outcome = "spliced"
		}
		if lost > 0 {
			// The in-memory ring rotated past the token, but on a durable
			// domain the missing entries are still in the WAL: splice them
			// from disk and report only what even the log no longer has
			// (compacted away below the last snapshot).
			if walEnts := s.walSplice(sess.ClientID, resume, lost); len(walEnts) > 0 {
				lost -= uint64(len(walEnts))
				ents = append(walEnts, ents...)
				outcome = "wal_spliced"
			}
		}
		streamResumeTotal[outcome].Inc()
		if lost > 0 {
			if writeEntry(w, 0, wire.NewEvent(s.cfg.Name, session.LostEvent,
				strconv.FormatUint(lost, 10))) != nil {
				return
			}
		}
		if !s.writeEntries(w, ents) {
			return
		}
		fl.Flush()
	}

	for {
		ents, overflow := q.DrainEntries(streamBatch)
		if overflow > 0 {
			// The client fell behind the bounded window while we were
			// blocked writing to it: report the gap, then shed the
			// connection so the slow client pays for its slowness by
			// reconnecting (with its resume token) instead of the
			// producer paying by blocking.
			writeEntry(w, 0, wire.NewEvent(s.cfg.Name, session.OverflowEvent,
				strconv.FormatUint(overflow, 10)))
			s.writeEntries(w, ents)
			fl.Flush()
			return
		}
		if len(ents) > 0 {
			if !s.writeEntries(w, ents) {
				return
			}
			fl.Flush()
			continue // keep draining a backlog before parking
		}
		select {
		case <-r.Context().Done():
			return
		case <-s.gate.drained():
			writeEntry(w, 0, wire.NewEvent(s.cfg.Name, "server-draining", ""))
			fl.Flush()
			return
		case <-q.Wakeup():
		case <-s.streams.tickCh():
			// Heartbeat comment: keeps intermediaries from idling the
			// connection out, and surfaces a dead peer as a write error.
			if _, err := io.WriteString(w, ": hb\n\n"); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// writeEntries emits a batch of frames, recording delivery lag and the
// events-total counter; false means the connection is gone.
func (s *Server) writeEntries(w io.Writer, ents []session.Entry) bool {
	now := time.Now()
	for _, e := range ents {
		if writeEntry(w, e.Seq, e.Msg) != nil {
			return false
		}
		streamLagHist.Observe(now.Sub(e.At))
		streamEventsTotal.Inc()
	}
	return true
}

// EventsResponse is the long-poll drain of the delivery queue, with the
// resume token to hand to /stream for an in-order upgrade.
type EventsResponse struct {
	Messages    []*wire.Message `json:"messages"`
	LastEventID uint64          `json:"lastEventId"`
}

// maxEventsWait caps ?wait= so a stuck client cannot hold an in-flight
// admission slot indefinitely.
const maxEventsWait = 30 * time.Second

// handleSessionEvents is the long-poll sibling of the stream:
// GET /api/v1/session/{id}/events?wait=2s blocks on the delivery queue
// until a message arrives or the wait expires, cutting the empty-poll
// round trips of clients that never upgrade to SSE.
func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(w, r.PathValue("id"))
	if !ok {
		return
	}
	q := r.URL.Query()
	max, _ := strconv.Atoi(q.Get("max"))
	var wait time.Duration
	if v := q.Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			writeErrCode(w, CodeBadRequest, "bad wait duration: "+err.Error(), 0)
			return
		}
		if d > maxEventsWait {
			d = maxEventsWait
		}
		wait = d
	}
	ents, overflow := sess.Buffer.DrainEntriesWait(max, wait, r.Context().Done())
	resp := EventsResponse{Messages: make([]*wire.Message, 0, len(ents)+1)}
	if overflow > 0 {
		resp.Messages = append(resp.Messages, wire.NewEvent(s.cfg.Name,
			session.OverflowEvent, strconv.FormatUint(overflow, 10)))
	}
	for _, e := range ents {
		resp.Messages = append(resp.Messages, e.Msg)
		resp.LastEventID = e.Seq
	}
	writeJSON(w, http.StatusOK, resp)
}
