// Package clock is the time source of a domain's background loops: the
// substrate's tickers and the trader's lease expiry. Real wraps package
// time one-to-one; Manual fires its tickers only when a test advances it.
package clock

import (
	"sync"
	"time"
)

// Clock reads the time and makes tickers.
type Clock interface {
	Now() time.Time
	NewTicker(d time.Duration) *Ticker
}

// Ticker delivers ticks on C until stopped, dropping ticks for a slow
// receiver the way time.Ticker does.
type Ticker struct {
	C    <-chan time.Time
	stop func()
}

// Stop turns the ticker off; no more ticks are sent after it returns.
func (t *Ticker) Stop() { t.stop() }

// Real is the wall clock.
var Real Clock = real{}

type real struct{}

func (real) Now() time.Time { return time.Now() }

func (real) NewTicker(d time.Duration) *Ticker {
	t := time.NewTicker(d)
	return &Ticker{C: t.C, stop: t.Stop}
}

// Manual is a clock that moves only on Advance. It starts at the wall
// time of its creation.
type Manual struct {
	mu      sync.Mutex
	now     time.Time
	tickers map[*manualTicker]struct{}
}

type manualTicker struct {
	c     chan time.Time
	every time.Duration
	next  time.Time
}

// NewManual returns a manual clock reading the current wall time.
func NewManual() *Manual {
	return &Manual{now: time.Now(), tickers: make(map[*manualTicker]struct{})}
}

// Now returns the clock's current reading.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// NewTicker returns a ticker that fires every d of advanced time.
func (m *Manual) NewTicker(d time.Duration) *Ticker {
	if d <= 0 {
		panic("clock: non-positive ticker interval")
	}
	t := &manualTicker{c: make(chan time.Time, 1), every: d}
	m.mu.Lock()
	t.next = m.now.Add(d)
	m.tickers[t] = struct{}{}
	m.mu.Unlock()
	return &Ticker{C: t.c, stop: func() {
		m.mu.Lock()
		delete(m.tickers, t)
		m.mu.Unlock()
	}}
}

// Advance moves the clock forward by d and fires every ticker whose
// period elapsed; a ticker whose last tick is still unread drops the
// new one.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.now = m.now.Add(d)
	for t := range m.tickers {
		for !t.next.After(m.now) {
			select {
			case t.c <- t.next:
			default:
			}
			t.next = t.next.Add(t.every)
		}
	}
}
