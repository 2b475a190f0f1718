package main

// Tracing from outside the program: spans are recorded in the
// generator's own code, around its calls into the portal client, and in
// the federation process around Domain.Handler. They stay in memory and
// are written out when the run ends.

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval; Parent 0 marks a root.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"` // unix ns
	End    int64  `json:"end"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer collects spans; a nil *tracer records nothing, which is how a
// plain (untraced) window runs the same code.
type tracer struct {
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

type spanKey struct{}

// begin opens a span under the span carried by ctx (if any) and returns a
// context carrying the new one, plus the function that closes it.
func (t *tracer) begin(ctx context.Context, name string) (context.Context, func()) {
	if t == nil {
		return ctx, func() {}
	}
	parent, _ := ctx.Value(spanKey{}).(uint64)
	id := t.next.Add(1)
	start := time.Now().UnixNano()
	return context.WithValue(ctx, spanKey{}, id), func() {
		t.add(span{ID: id, Parent: parent, Name: name, Start: start, End: time.Now().UnixNano()})
	}
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans saves the generator's and the handler wrapper's spans as
// JSON lines.
func writeSpans(path string, spans []span, handlers []handlerSpan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	for _, h := range handlers {
		s := span{Parent: h.Parent, Name: "server." + h.Route, Start: h.Start, End: h.End}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// tracingTransport puts the id of the span a request is made under into
// spanHeader, and records the HTTP exchange (up to the response headers)
// as a child span named "http".
type tracingTransport struct {
	base   http.RoundTripper
	tracer func() *tracer // the current window's tracer, nil when plain
}

func (t *tracingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	tr := t.tracer()
	id, ok := r.Context().Value(spanKey{}).(uint64)
	if tr == nil || !ok {
		return t.base.RoundTrip(r)
	}
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	_, end := tr.begin(r.Context(), "http")
	resp, err := t.base.RoundTrip(r)
	end()
	return resp, err
}

// newHTTPClient builds the generator's single keep-alive transport. dials
// counts the TCP connections it opens.
func newHTTPClient(dials *atomic.Int64, tracer func() *tracer) *http.Client {
	var d net.Dialer
	tr := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     time.Minute,
	}
	return &http.Client{Transport: &tracingTransport{base: tr, tracer: tracer}}
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(s span, children []span) time.Duration {
	covered := coverage(s.Start, s.End, children)
	return s.dur() - covered
}

// coverage is how much of [start, end) the union of the spans covers.
func coverage(start, end int64, spans []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range spans {
		a, b := max(c.Start, start), min(c.End, end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	// Insertion sort: a span has a handful of children.
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && ivs[j].a < ivs[j-1].a; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	var total, curA, curB int64
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	total += curB - curA
	return time.Duration(total)
}
