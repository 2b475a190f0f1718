package main

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"discover/internal/portal"
	"discover/internal/wire"
)

// broadcast is durable collaboration fan-out (paper §5.2.5): members on
// three durable domains share one application's group; senders on the
// host and on remote domains post chat lines and whiteboard strokes, and
// every other member must receive each exactly once, in per-sender order.
type broadcast struct {
	n       int // senders, one issuing goroutine each
	members []*member
	senders []*member

	mu      sync.Mutex
	plans   [][][]bcastOp // [window][sender] schedule
	sent    [][][]bool    // [window][sender][seq] post acknowledged
	recs    []*recorder   // [window]
	updates updateUnits   // application update units over all windows
}

// updateUnits counts application-update units: one per (update, member)
// between the first and the last update the member received in a window.
type updateUnits struct {
	Units      int `json:"units"`
	Gaps       int `json:"gaps"`       // never received
	Reorders   int `json:"reorders"`   // received behind a later update
	Duplicates int `json:"duplicates"` // received again
}

const (
	bcastDomains   = 3
	bcastMembers   = 4 // per domain
	bcastRate      = 100.0
	bcastPause     = 20 * time.Millisecond
	bcastLimit     = 500 * time.Millisecond
	bcastChatShare = 0.8
	strokeMin      = 256
	strokeMax      = 16 << 10
	drainTimeout   = 10 * time.Second
)

type bcastOp struct {
	due    time.Time
	stroke bool
	size   int // stroke bytes
}

// member is one SSE session in the group. Its receive state is touched
// only by its stream goroutine, except when check reads it after the
// streams have stopped.
type member struct {
	c    *portal.Client
	self int // sender index, or -1

	mu     sync.Mutex
	got    map[[3]int]bool     // (window, sender, seq) received
	maxSeq map[[2]int]int      // (window, sender) -> highest seq seen
	upd    map[int]*updateSeen // window -> application updates received in it
}

// updateSeen is one member's application updates received in one window.
type updateSeen struct {
	seqs       map[uint64]bool
	lo, hi     uint64
	reorders   int
	duplicates int
}

func (b *broadcast) shape() fedShape {
	names := make([]string, bcastDomains)
	for i := range names {
		names[i] = fmt.Sprintf("d%d", i)
	}
	apps := make([]int, bcastDomains)
	apps[0] = 1
	return fedShape{Domains: names, Apps: apps, Pause: bcastPause, Durable: true}
}

func (b *broadcast) limit() time.Duration { return bcastLimit }

func (b *broadcast) params() map[string]any {
	return map[string]any{
		"domains": bcastDomains, "durable": true, "members_per_domain": bcastMembers,
		"senders": b.n, "rate_ops_per_s": bcastRate, "chat_share": bcastChatShare,
		"stroke_bytes":   fmt.Sprintf("%d-%d log-uniform", strokeMin, strokeMax),
		"phase_pause_ms": bcastPause.Milliseconds(), "limit_ms": bcastLimit.Milliseconds(),
		"unit": "one (event, receiving member) delivery; chats and strokes timed from the send's due time, application updates untimed",
	}
}

func (b *broadcast) setup(ctx context.Context, e *env) error {
	app := e.fed.ready.Domains[0].Apps[0]
	for d := 0; d < bcastDomains; d++ {
		for i := 0; i < bcastMembers; i++ {
			m := &member{c: e.client(d), self: -1,
				got: map[[3]int]bool{}, maxSeq: map[[2]int]int{}, upd: map[int]*updateSeen{}}
			b.members = append(b.members, m)
			if err := m.c.Login(ctx, benchUser, benchSecret); err != nil {
				return err
			}
			if _, err := m.c.ConnectApp(ctx, app); err != nil {
				return err
			}
		}
	}
	// Senders round-robin over the domains' first members: the first on
	// the host, the next on a remote domain, and so on.
	for s := 0; s < b.n; s++ {
		m := b.members[(s%bcastDomains)*bcastMembers+s/bcastDomains]
		m.self = s
		b.senders = append(b.senders, m)
	}
	cs := make([]*portal.Client, len(b.members))
	for i, m := range b.members {
		m := m
		cs[i] = m.c
		m.c.StreamEvents(func(msg *wire.Message) {
			e.deliveries.Add(1)
			b.receive(e, m, msg, time.Now())
		})
	}
	return waitStreaming(ctx, cs)
}

// tag names one send: window, sender and sequence number.
func tag(win, sender, seq int) string { return fmt.Sprintf("fb/%d/%d/%d/", win, sender, seq) }

func parseTag(s string) (win, sender, seq int, ok bool) {
	rest, found := strings.CutPrefix(s, "fb/")
	if !found {
		return 0, 0, 0, false
	}
	parts := strings.SplitN(rest, "/", 4)
	if len(parts) < 4 {
		return 0, 0, 0, false
	}
	var err error
	var v [3]int
	for i := range v {
		if v[i], err = strconv.Atoi(parts[i]); err != nil {
			return 0, 0, 0, false
		}
	}
	return v[0], v[1], v[2], true
}

func (b *broadcast) receive(e *env, m *member, msg *wire.Message, at time.Time) {
	var body string
	switch msg.Kind {
	case wire.KindChat:
		body = msg.Text
	case wire.KindWhiteboard:
		body = string(msg.Data[:min(len(msg.Data), 32)])
	case wire.KindUpdate:
		b.receiveUpdate(m, msg.Seq, at)
		return
	default:
		return
	}
	win, sender, seq, ok := parseTag(body)
	if !ok {
		return // the group's other traffic
	}
	b.mu.Lock()
	op := b.plans[win][sender][seq]
	b.mu.Unlock()
	if msg.Kind == wire.KindWhiteboard && len(msg.Data) != op.size {
		e.chk.fail(fmt.Sprintf("broadcast: stroke %s arrived with %d bytes, sent %d", body, len(msg.Data), op.size))
	}
	m.mu.Lock()
	key := [3]int{win, sender, seq}
	dup := m.got[key]
	m.got[key] = true
	last, seen := m.maxSeq[[2]int{win, sender}]
	if !seen || seq > last {
		m.maxSeq[[2]int{win, sender}] = seq
	}
	m.mu.Unlock()
	switch {
	case sender == m.self:
		e.chk.fail(fmt.Sprintf("broadcast: sender %d received its own %s", sender, body))
	case dup:
		e.chk.fail(fmt.Sprintf("broadcast: %s delivered twice to %s", body, m.c.ClientID()))
	default:
		// A delivery after a later send of the same sender completes its
		// unit and is counted as a known defect (NOTES.md, "Known
		// defects").
		b.unitDone(win, op.due, at, seen && seq < last)
	}
}

// receiveUpdate notes an application update that reached m at at, under
// the window measuring at, if any. Updates carry no latency; they count
// toward completeness only.
func (b *broadcast) receiveUpdate(m *member, seq uint64, at time.Time) {
	win := -1
	b.mu.Lock()
	for i, r := range b.recs {
		if r.in(at) {
			win = i
		}
	}
	b.mu.Unlock()
	if win < 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	u := m.upd[win]
	if u == nil {
		u = &updateSeen{seqs: map[uint64]bool{}, lo: seq, hi: seq}
		m.upd[win] = u
	}
	switch {
	case u.seqs[seq]:
		u.duplicates++
		return
	case seq < u.hi:
		u.reorders++
	}
	u.seqs[seq] = true
	u.lo, u.hi = min(u.lo, seq), max(u.hi, seq)
}

// countUpdates adds window win's application-update units to its
// recorder: one per (update, member) from the member's first to its last
// update in the window, failed when never received or received twice;
// one received behind a later one is counted apart, as a known defect.
func (b *broadcast) countUpdates(win int, rec *recorder) {
	var u updateUnits
	for _, m := range b.members {
		m.mu.Lock()
		if s := m.upd[win]; s != nil {
			n := int(s.hi-s.lo) + 1
			u.Units += n
			u.Gaps += n - len(s.seqs)
			u.Reorders += s.reorders
			u.Duplicates += s.duplicates
		}
		m.mu.Unlock()
	}
	rec.untimed(u.Units, u.Gaps+u.Duplicates, u.Reorders)
	b.mu.Lock()
	b.updates.Units += u.Units
	b.updates.Gaps += u.Gaps
	b.updates.Reorders += u.Reorders
	b.updates.Duplicates += u.Duplicates
	b.mu.Unlock()
}

// unitDone routes a delivery to its window's recorder.
func (b *broadcast) unitDone(win int, due, at time.Time, reordered bool) {
	b.mu.Lock()
	rec := b.recs[win]
	b.mu.Unlock()
	rec.done(due, at, nil)
	if reordered {
		rec.reordered(due)
	}
}

func (b *broadcast) run(e *env, w *window) {
	plans := make([][]bcastOp, len(b.senders))
	logSpan := math.Log(float64(strokeMax) / strokeMin)
	for s := range b.senders {
		for _, due := range w.dues(poisson(w.rng, bcastRate/float64(len(b.senders)), w.span())) {
			op := bcastOp{due: due}
			if w.rng.Float64() >= bcastChatShare {
				op.stroke = true
				op.size = int(strokeMin * math.Exp(w.rng.Float64()*logSpan))
			}
			plans[s] = append(plans[s], op)
		}
	}
	sent := make([][]bool, len(plans))
	for s := range plans {
		sent[s] = make([]bool, len(plans[s]))
	}
	b.mu.Lock()
	b.plans = append(b.plans, plans)
	b.sent = append(b.sent, sent)
	b.recs = append(b.recs, w.rec)
	b.mu.Unlock()

	var wg sync.WaitGroup
	for s, m := range b.senders {
		wg.Add(1)
		go func(s int, m *member) {
			defer wg.Done()
			for seq, op := range plans[s] {
				w.waitUntil(op.due)
				ok := b.send(w, m, tag(w.index, s, seq), op)
				b.mu.Lock()
				sent[s][seq] = ok
				b.mu.Unlock()
			}
		}(s, m)
	}
	wg.Wait()
	b.drain(w.index)
	b.countUpdates(w.index, w.rec)
}

// send posts one chat line or stroke; a failed post fails the unit of
// every member that should have received it.
func (b *broadcast) send(w *window, m *member, t string, op bcastOp) bool {
	w.rec.op(op.due)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ctx, endUnit := w.tr.begin(ctx, "unit.broadcast")
	var err error
	if op.stroke {
		// Pseudo-random letters: compressible about as well as text, so
		// the wire's compression is exercised without flattering it.
		data := make([]byte, op.size)
		x := uint32(len(t)*2654435761 + op.size)
		for i := copy(data, t); i < len(data); i++ {
			x = x*1664525 + 1013904223
			data[i] = 'a' + byte((x>>24)%26)
		}
		ctx, endCall := w.tr.begin(ctx, "portal.whiteboard")
		err = m.c.Whiteboard(ctx, data)
		endCall()
	} else {
		ctx, endCall := w.tr.begin(ctx, "portal.chat")
		err = m.c.Chat(ctx, t+"hello from the benchmark")
		endCall()
	}
	endUnit()
	if err != nil {
		for range b.members[1:] {
			w.rec.done(op.due, time.Time{}, err)
		}
		return false
	}
	return true
}

// missing counts the (send, member) deliveries of window win that are
// still outstanding.
func (b *broadcast) missing(win int) int {
	b.mu.Lock()
	sent := b.sent[win]
	b.mu.Unlock()
	n := 0
	for _, m := range b.members {
		m.mu.Lock()
		for s := range sent {
			if s == m.self {
				continue
			}
			for seq, ok := range sent[s] {
				if ok && !m.got[[3]int{win, s, seq}] {
					n++
				}
			}
		}
		m.mu.Unlock()
	}
	return n
}

// drain waits until every acknowledged send of the window has reached
// every other member, or until drainTimeout.
func (b *broadcast) drain(win int) {
	deadline := time.Now().Add(drainTimeout)
	for b.missing(win) > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

func (b *broadcast) check(ctx context.Context, e *env) {
	b.mu.Lock()
	wins := len(b.sent)
	b.mu.Unlock()
	for win := 0; win < wins; win++ {
		if n := b.missing(win); n > 0 {
			e.chk.fail(fmt.Sprintf("broadcast: window %d: %d deliveries never arrived", win, n))
		}
	}
	// The replicated group log must converge to one root hash on every
	// domain.
	deadline := time.Now().Add(drainTimeout)
	for {
		hashes := map[string]bool{}
		var last string
		for d := 0; d < bcastDomains; d++ {
			info, err := b.members[d*bcastMembers].c.CollabInfo(ctx)
			if err != nil {
				e.chk.fail(fmt.Sprintf("broadcast: collab info at d%d: %v", d, err))
				return
			}
			hashes[info.Log.Hash] = true
			last = info.Log.Hash
		}
		if len(hashes) == 1 && last != "" {
			return
		}
		if time.Now().After(deadline) {
			e.chk.fail(fmt.Sprintf("broadcast: collab root hashes differ across domains: %v", hashes))
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func (b *broadcast) close() {
	for _, m := range b.members {
		m.c.StopPump()
	}
}
