package main

import (
	"math/rand"
	"sync"
	"time"
)

// warmup runs before every measured window; units due in it are driven
// and checked but not measured.
const warmup = 2 * time.Second

// slipLimit is how late the generator may wake for an op before the op
// counts as slipped; maxSlipped is the share of slipped ops beyond which
// the run is invalid (the box, not the program, was too slow to keep the
// schedule).
const (
	slipLimit  = 10 * time.Millisecond
	maxSlipped = 0.05
)

// window is one open-loop load interval: the schedule starts at origin,
// and units due in [start, end) are measured.
type window struct {
	index      int
	rng        *rand.Rand
	origin     time.Time
	start, end time.Time
	tr         *tracer // nil in a plain window
	rec        *recorder
}

func newWindow(index int, seed int64, dur time.Duration, limit time.Duration, tr *tracer) *window {
	origin := time.Now().Add(100 * time.Millisecond)
	start := origin.Add(warmup)
	return &window{
		index:  index,
		rng:    rand.New(rand.NewSource(seed*1000 + int64(index))),
		origin: origin,
		start:  start,
		end:    start.Add(dur),
		tr:     tr,
		rec:    &recorder{start: start, end: start.Add(dur), limit: limit},
	}
}

// span is the whole schedule length, warm-up included.
func (w *window) span() time.Duration { return w.end.Sub(w.origin) }

// dues converts schedule offsets into due times.
func (w *window) dues(offsets []time.Duration) []time.Time {
	out := make([]time.Time, len(offsets))
	for i, o := range offsets {
		out[i] = w.origin.Add(o)
	}
	return out
}

// waitUntil sleeps until due and tells the recorder how late the wake
// came. A due time already past (the issuing goroutine was busy with the
// previous unit) is the system's delay, not the generator's, and is not
// recorded.
func (w *window) waitUntil(due time.Time) {
	d := time.Until(due)
	if d <= 0 {
		return
	}
	time.Sleep(d)
	w.rec.woke(due, time.Since(due))
}

// recorder accumulates one window's units.
type recorder struct {
	start, end time.Time
	limit      time.Duration

	mu        sync.Mutex
	lat       []float64 // latency in ms of each timed unit that completed
	attempted int
	errored   int // units that returned an error or were never delivered
	overLimit int // units that completed beyond the latency limit
	ops       int // generator operations due in the window
	genLate   []float64
	slipped   int
	// Units that completed but show a known program defect (NOTES.md):
	lost     int // steer: responses portal.Client.Do's waiter missed
	reorders int // broadcast: deliveries behind a later one of their sender
	errKinds map[string]int
}

func (r *recorder) in(due time.Time) bool { return !due.Before(r.start) && due.Before(r.end) }

// op counts one generator operation due at due.
func (r *recorder) op(due time.Time) {
	if !r.in(due) {
		return
	}
	r.mu.Lock()
	r.ops++
	r.mu.Unlock()
}

// done records one unit of work due at due that finished at at (err nil)
// or failed.
func (r *recorder) done(due, at time.Time, err error) {
	if !r.in(due) {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.errored++
		if r.errKinds == nil {
			r.errKinds = map[string]int{}
		}
		msg := err.Error()
		r.errKinds[msg[:min(len(msg), 80)]]++
		return
	}
	l := at.Sub(due)
	r.lat = append(r.lat, float64(l)/float64(time.Millisecond))
	if l > r.limit {
		r.overLimit++
	}
}

func (r *recorder) woke(due time.Time, late time.Duration) {
	if !r.in(due) {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.genLate = append(r.genLate, float64(late)/float64(time.Millisecond))
	if late > slipLimit {
		r.slipped++
	}
}

func (r *recorder) lostResponse(due time.Time) {
	if !r.in(due) {
		return
	}
	r.mu.Lock()
	r.lost++
	r.mu.Unlock()
}

func (r *recorder) reordered(due time.Time) {
	if !r.in(due) {
		return
	}
	r.mu.Lock()
	r.reorders++
	r.mu.Unlock()
}

// untimed counts n units that carry no latency (broadcast's application
// updates), of which errored failed and reordered arrived out of order.
func (r *recorder) untimed(n, errored, reordered int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += n
	r.errored += errored
	r.reorders += reordered
}

// failed counts the units that did not complete: an error, a response or
// delivery that never came, a duplicate. It is the result line's failed.
func (r *recorder) failed() int { return r.errored }

// flawed adds to the failed units those that completed late or showed a
// known defect; it is failed_frac's numerator.
func (r *recorder) flawed() int { return r.errored + r.overLimit + r.lost + r.reorders }

// checks collects output-check violations; any one makes the run
// incorrect.
type checks struct {
	mu       sync.Mutex
	n        int
	examples []string
}

func (c *checks) fail(msg string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if len(c.examples) < 5 {
		c.examples = append(c.examples, msg)
	}
}

func (c *checks) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}
