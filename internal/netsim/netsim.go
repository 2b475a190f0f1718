package netsim

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Site names one location in the simulated topology, e.g. "rutgers".
type Site string

type linkKey struct{ from, to Site }

// Topology holds per-directed-pair RTT and bandwidth settings. The zero
// value has no latency and unlimited bandwidth everywhere; intra-site
// traffic (from == to) is always unshaped unless explicitly configured.
type Topology struct {
	mu         sync.RWMutex
	rtt        map[linkKey]time.Duration
	bw         map[linkKey]float64 // bytes per second; 0 = unlimited
	defaultRTT time.Duration
	defaultBW  float64
}

// NewTopology returns an empty topology.
func NewTopology() *Topology {
	return &Topology{
		rtt: make(map[linkKey]time.Duration),
		bw:  make(map[linkKey]float64),
	}
}

// SetDefaultRTT sets the round-trip time used for site pairs with no
// explicit entry. Intra-site pairs stay at zero.
func (t *Topology) SetDefaultRTT(rtt time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.defaultRTT = rtt
}

// SetDefaultBandwidth sets the bandwidth (bytes/second) used for site
// pairs with no explicit entry. Zero means unlimited.
func (t *Topology) SetDefaultBandwidth(bytesPerSec float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.defaultBW = bytesPerSec
}

// SetRTT sets the symmetric round-trip time between two sites.
func (t *Topology) SetRTT(a, b Site, rtt time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rtt[linkKey{a, b}] = rtt
	t.rtt[linkKey{b, a}] = rtt
}

// SetBandwidth sets the symmetric bandwidth between two sites in
// bytes/second. Zero means unlimited.
func (t *Topology) SetBandwidth(a, b Site, bytesPerSec float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.bw[linkKey{a, b}] = bytesPerSec
	t.bw[linkKey{b, a}] = bytesPerSec
}

// RTT reports the configured round trip between two sites.
func (t *Topology) RTT(a, b Site) time.Duration {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if d, ok := t.rtt[linkKey{a, b}]; ok {
		return d
	}
	if a == b {
		return 0
	}
	return t.defaultRTT
}

// Bandwidth reports the configured bandwidth between two sites.
func (t *Topology) Bandwidth(a, b Site) float64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if bw, ok := t.bw[linkKey{a, b}]; ok {
		return bw
	}
	if a == b {
		return 0
	}
	return t.defaultBW
}

// DirStats counts traffic on one directed site pair. Msgs counts both
// Write and Read accounting events: accepted conns are not wrapped, so
// responses surface as reads on the dialer's side.
type DirStats struct {
	Msgs  uint64
	Bytes uint64
}

// Network dials shaped connections over a Topology and accounts traffic.
// Faults (partitions, dead sites, resets, spikes — see faults.go) can be
// injected and reverted at runtime.
type Network struct {
	topo  *Topology
	mu    sync.Mutex
	stats map[linkKey]*DirStats

	fmu         sync.Mutex
	faults      faultState
	writeFaults atomic.Bool // fast path: any write-path fault configured
}

// New returns a Network over topo. A nil topo means an unshaped network
// that still counts traffic.
func New(topo *Topology) *Network {
	if topo == nil {
		topo = NewTopology()
	}
	return &Network{topo: topo, stats: make(map[linkKey]*DirStats), faults: newFaultState()}
}

// Topology returns the network's topology for further configuration.
func (n *Network) Topology() *Topology { return n.topo }

// LinkStats returns a snapshot of the traffic sent from one site to
// another through connections dialed on this Network.
func (n *Network) LinkStats(from, to Site) DirStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	if s, ok := n.stats[linkKey{from, to}]; ok {
		return *s
	}
	return DirStats{}
}

// TotalWAN sums traffic over all inter-site (from != to) directed links.
func (n *Network) TotalWAN() DirStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out DirStats
	for k, s := range n.stats {
		if k.from != k.to {
			out.Msgs += s.Msgs
			out.Bytes += s.Bytes
		}
	}
	return out
}

// ResetStats zeroes all traffic counters.
func (n *Network) ResetStats() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats = make(map[linkKey]*DirStats)
}

func (n *Network) account(from, to Site, bytes int) {
	n.mu.Lock()
	s, ok := n.stats[linkKey{from, to}]
	if !ok {
		s = &DirStats{}
		n.stats[linkKey{from, to}] = s
	}
	s.Msgs++
	s.Bytes += uint64(bytes)
	n.mu.Unlock()
}

// Dial opens a TCP connection from one site to an address at another site
// and wraps it with the configured shaping.
func (n *Network) Dial(from, to Site, network, addr string) (net.Conn, error) {
	return n.DialContext(context.Background(), from, to, network, addr)
}

// DialContext is Dial with a context, suitable for http.Transport. Dials
// across a partitioned link black-hole until the link heals or ctx
// expires; dials touching a killed site fail with ErrSiteDown.
func (n *Network) DialContext(ctx context.Context, from, to Site, network, addr string) (net.Conn, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := n.checkDial(ctx, from, to); err != nil {
		return nil, err
	}
	var d net.Dialer
	raw, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return n.Wrap(from, to, raw), nil
}

// Dialer returns a DialContext-shaped function pinned to a site pair, for
// plugging into http.Transport or the ORB.
func (n *Network) Dialer(from, to Site) func(ctx context.Context, network, addr string) (net.Conn, error) {
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		return n.DialContext(ctx, from, to, network, addr)
	}
}

// Wrap shapes an existing connection as if dialed from one site to
// another. The wrapper takes ownership of raw. The fault layer sits
// directly on raw so partitions sever the wire under the shaping.
func (n *Network) Wrap(from, to Site, raw net.Conn) net.Conn {
	raw = n.newFaultConn(from, to, raw)
	oneWay := n.topo.RTT(from, to) / 2
	bw := n.topo.Bandwidth(from, to)
	if oneWay <= 0 && bw <= 0 {
		// Unshaped: still count traffic.
		return &countingConn{Conn: raw, net: n, from: from, to: to}
	}
	c := &shapedConn{
		raw:    raw,
		net:    n,
		from:   from,
		to:     to,
		oneWay: oneWay,
		bw:     bw,
		out:    make(chan chunk, 1024),
		in:     make(chan chunk, 1024),
		done:   make(chan struct{}),
	}
	go c.writer()
	go c.reader()
	return c
}

// countingConn counts writes without shaping.
type countingConn struct {
	net.Conn
	net  *Network
	from Site
	to   Site
}

func (c *countingConn) Write(p []byte) (int, error) {
	nn, err := c.Conn.Write(p)
	if nn > 0 {
		c.net.account(c.from, c.to, nn)
	}
	return nn, err
}

func (c *countingConn) Read(p []byte) (int, error) {
	nn, err := c.Conn.Read(p)
	if nn > 0 {
		c.net.account(c.to, c.from, nn)
	}
	return nn, err
}

type chunk struct {
	data    []byte
	readyAt time.Time
	err     error
}

// shapedConn delays both directions by one-way latency plus serialization
// time, pipelined so that throughput is limited by bandwidth, not by
// latency.
type shapedConn struct {
	raw    net.Conn
	net    *Network
	from   Site
	to     Site
	oneWay time.Duration
	bw     float64

	out  chan chunk // Write -> writer goroutine
	in   chan chunk // reader goroutine -> Read
	done chan struct{}

	closeOnce sync.Once

	mu       sync.Mutex
	writeErr error
	outClock time.Time // serialization clock, outbound
	inClock  time.Time // serialization clock, inbound
	leftover []byte    // partially consumed inbound chunk
	readErr  error
}

func (c *shapedConn) serialize(clock *time.Time, nbytes int) time.Time {
	now := time.Now()
	start := now
	if clock.After(now) {
		start = *clock
	}
	if c.bw > 0 {
		start = start.Add(time.Duration(float64(nbytes) / c.bw * float64(time.Second)))
	}
	*clock = start
	return start.Add(c.oneWay)
}

// Write enqueues the data for delayed delivery to the peer and returns
// immediately, so latency does not serialize the sender.
func (c *shapedConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.writeErr != nil {
		err := c.writeErr
		c.mu.Unlock()
		return 0, err
	}
	readyAt := c.serialize(&c.outClock, len(p))
	c.mu.Unlock()

	data := make([]byte, len(p))
	copy(data, p)
	select {
	case c.out <- chunk{data: data, readyAt: readyAt}:
		c.net.account(c.from, c.to, len(p))
		return len(p), nil
	case <-c.done:
		return 0, net.ErrClosed
	}
}

func (c *shapedConn) writer() {
	for {
		select {
		case ch := <-c.out:
			if d := time.Until(ch.readyAt); d > 0 {
				timer := time.NewTimer(d)
				select {
				case <-timer.C:
				case <-c.done:
					timer.Stop()
					// Flush what we already accepted so close is orderly.
				}
			}
			if _, err := c.raw.Write(ch.data); err != nil {
				c.mu.Lock()
				c.writeErr = err
				c.mu.Unlock()
				return
			}
		case <-c.done:
			// Drain anything still queued, then stop.
			for {
				select {
				case ch := <-c.out:
					if _, err := c.raw.Write(ch.data); err != nil {
						return
					}
				default:
					c.raw.Close()
					return
				}
			}
		}
	}
}

func (c *shapedConn) reader() {
	buf := make([]byte, 32*1024)
	for {
		n, err := c.raw.Read(buf)
		var ch chunk
		if n > 0 {
			data := make([]byte, n)
			copy(data, buf[:n])
			c.mu.Lock()
			ready := c.serialize(&c.inClock, n)
			c.mu.Unlock()
			ch = chunk{data: data, readyAt: ready}
			c.net.account(c.to, c.from, n)
		}
		if err != nil {
			ch.err = err
		}
		select {
		case c.in <- ch:
		case <-c.done:
			return
		}
		if err != nil {
			return
		}
	}
}

// Read delivers inbound bytes no earlier than their shaped arrival time.
func (c *shapedConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if len(c.leftover) > 0 {
		n := copy(p, c.leftover)
		c.leftover = c.leftover[n:]
		c.mu.Unlock()
		return n, nil
	}
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return 0, err
	}
	c.mu.Unlock()

	select {
	case ch := <-c.in:
		if ch.err != nil && len(ch.data) == 0 {
			c.mu.Lock()
			c.readErr = ch.err
			c.mu.Unlock()
			return 0, ch.err
		}
		if d := time.Until(ch.readyAt); d > 0 {
			timer := time.NewTimer(d)
			select {
			case <-timer.C:
			case <-c.done:
				timer.Stop()
				return 0, net.ErrClosed
			}
		}
		n := copy(p, ch.data)
		c.mu.Lock()
		if n < len(ch.data) {
			c.leftover = ch.data[n:]
		}
		if ch.err != nil {
			c.readErr = ch.err
		}
		c.mu.Unlock()
		return n, nil
	case <-c.done:
		return 0, net.ErrClosed
	}
}

// Close shuts the connection down; queued outbound chunks are flushed.
func (c *shapedConn) Close() error {
	c.closeOnce.Do(func() { close(c.done) })
	return nil
}

func (c *shapedConn) LocalAddr() net.Addr  { return c.raw.LocalAddr() }
func (c *shapedConn) RemoteAddr() net.Addr { return c.raw.RemoteAddr() }

// Deadlines pass through to the underlying connection; they bound the raw
// I/O, and queue waits are additionally bounded by Close.
func (c *shapedConn) SetDeadline(t time.Time) error      { return c.raw.SetDeadline(t) }
func (c *shapedConn) SetReadDeadline(t time.Time) error  { return c.raw.SetReadDeadline(t) }
func (c *shapedConn) SetWriteDeadline(t time.Time) error { return c.raw.SetWriteDeadline(t) }

// String describes the shaping for logs.
func (c *shapedConn) String() string {
	return fmt.Sprintf("netsim %s->%s oneWay=%s bw=%.0fB/s", c.from, c.to, c.oneWay, c.bw)
}
