package orb

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"discover/internal/telemetry"
	"discover/internal/wire"
)

// Histogram names exported on /metrics. Latency is observed per method
// under an `op` label; *Histogram pointers are cached per method in the
// ORB so the hot path does one read-locked map hit and two atomic adds.
const (
	metricInvoke  = "discover_orb_invoke_seconds"  // client: Invoke round trip
	metricServant = "discover_orb_servant_seconds" // server: servant dispatch
	metricOneway  = "discover_orb_oneway_seconds"  // client: oneway send
)

// A Servant handles invocations on one object key.
type Servant interface {
	// Dispatch executes method with gob-encoded args and returns a
	// gob-encoded result. Returning a *RemoteError propagates that error
	// verbatim; any other error is wrapped as an APPLICATION error.
	Dispatch(method string, args []byte) ([]byte, error)
}

// MethodMap is a convenience Servant: a map from method name to handler.
type MethodMap map[string]func(args []byte) ([]byte, error)

// Dispatch implements Servant.
func (m MethodMap) Dispatch(method string, args []byte) ([]byte, error) {
	fn, ok := m[method]
	if !ok {
		return nil, &RemoteError{Code: CodeNoMethod, Msg: method}
	}
	return fn(args)
}

// Handler adapts a typed function into a MethodMap entry, handling the
// marshalling symmetrically with Invoke.
func Handler[Req, Resp any](fn func(Req) (Resp, error)) func([]byte) ([]byte, error) {
	return func(args []byte) ([]byte, error) {
		var req Req
		if err := Unmarshal(args, &req); err != nil {
			return nil, &RemoteError{Code: CodeMarshal, Msg: err.Error()}
		}
		resp, err := fn(req)
		if err != nil {
			return nil, err
		}
		return Marshal(resp)
	}
}

// Dialer matches net.Dialer.DialContext and netsim.Network dialers.
type Dialer func(ctx context.Context, network, addr string) (net.Conn, error)

// Option configures an ORB.
type Option func(*ORB)

// WithDialer plugs a custom dialer (e.g. a netsim shaped dialer) into the
// ORB's client side.
func WithDialer(d Dialer) Option { return func(o *ORB) { o.dial = d } }

// WithDialTimeout bounds connection establishment separately from the
// invocation context: a black-holed peer fails the dial after d instead
// of consuming the caller's whole invocation budget. Zero disables the
// bound.
func WithDialTimeout(d time.Duration) Option {
	return func(o *ORB) { o.SetDialTimeout(d) }
}

// orbStats is the ORB's shared atomic counter block. Pooled connections
// hold a pointer to it so totals survive connection churn.
type orbStats struct {
	invocations atomic.Uint64 // two-way requests sent
	oneways     atomic.Uint64 // oneway requests sent
	writes      atomic.Uint64 // client-side write syscalls on pooled conns
	bytesOut    atomic.Uint64 // client-side bytes written on pooled conns
	replies     atomic.Uint64 // server-side replies written
	bytes       atomic.Uint64 // bytes written on ORB connections (both roles)
	internDefs  atomic.Uint64 // descriptor/target definitions sent
	internHits  atomic.Uint64 // interned references sent (cache hits)
	compressed  atomic.Uint64 // frames sent flate-compressed

	// Mirror of bytes in the process-wide metric
	// discover_wire_bytes_total; nil when the stats block was not built
	// by New (direct test construction).
	ctrBytes *telemetry.Counter
}

// addWireBytes accounts n bytes written on an ORB connection.
func (s *orbStats) addWireBytes(n uint64) {
	s.bytes.Add(n)
	if s.ctrBytes != nil {
		s.ctrBytes.Add(n)
	}
}

// Stats is a snapshot of an ORB's cumulative wire-level work: how many
// invocations went out and what they cost in write syscalls and bytes.
// Each request is one frame and one Write, the connection preface riding
// in front of a connection's first frame.
type Stats struct {
	Invocations uint64 // two-way requests sent
	Oneways     uint64 // oneway requests sent
	Writes      uint64 // write syscalls issued for requests
	BytesOut    uint64 // request bytes written
	Replies     uint64 // replies served to remote callers
	Bytes       uint64 // bytes written on ORB connections (both roles)
	InternDefs  uint64 // descriptor/target definitions sent
	InternHits  uint64 // interned references sent (cache hits)
	Compressed  uint64 // frames sent flate-compressed
}

// ORB hosts servants on a listening endpoint and invokes methods on remote
// objects through a pool of multiplexed connections.
type ORB struct {
	dial        Dialer
	dialTimeout atomic.Int64 // nanoseconds; 0 = no separate dial bound
	stats       orbStats

	histMu      sync.RWMutex
	invokeHist  map[string]*telemetry.Histogram
	servantHist map[string]*telemetry.Histogram
	onewayHist  map[string]*telemetry.Histogram

	mu       sync.RWMutex
	servants map[string]Servant
	ln       net.Listener
	addr     string
	closed   bool
	accepted map[net.Conn]struct{}

	poolMu sync.Mutex
	pool   map[string]*poolConn

	wg sync.WaitGroup
}

// histFor returns the per-method histogram cached in m, registering it in
// the default registry on first use.
func (o *ORB) histFor(m map[string]*telemetry.Histogram, name, method string) *telemetry.Histogram {
	o.histMu.RLock()
	h := m[method]
	o.histMu.RUnlock()
	if h != nil {
		return h
	}
	o.histMu.Lock()
	defer o.histMu.Unlock()
	if h = m[method]; h == nil {
		h = telemetry.GetHistogram(name, "op", method)
		m[method] = h
	}
	return h
}

// Stats reports cumulative counters over all pooled connections, past and
// present.
func (o *ORB) Stats() Stats {
	return Stats{
		Invocations: o.stats.invocations.Load(),
		Oneways:     o.stats.oneways.Load(),
		Writes:      o.stats.writes.Load(),
		BytesOut:    o.stats.bytesOut.Load(),
		Replies:     o.stats.replies.Load(),
		Bytes:       o.stats.bytes.Load(),
		InternDefs:  o.stats.internDefs.Load(),
		InternHits:  o.stats.internHits.Load(),
		Compressed:  o.stats.compressed.Load(),
	}
}

// New creates an ORB. Call Listen to host servants; a client-only ORB
// (no Listen) can still Invoke.
func New(opts ...Option) *ORB {
	o := &ORB{
		servants:    make(map[string]Servant),
		pool:        make(map[string]*poolConn),
		accepted:    make(map[net.Conn]struct{}),
		invokeHist:  make(map[string]*telemetry.Histogram),
		servantHist: make(map[string]*telemetry.Histogram),
		onewayHist:  make(map[string]*telemetry.Histogram),
	}
	o.stats.ctrBytes = telemetry.GetCounter("discover_wire_bytes_total")
	var d net.Dialer
	o.dial = d.DialContext
	for _, opt := range opts {
		opt(o)
	}
	return o
}

// Listen binds the ORB to addr (e.g. "127.0.0.1:0") and starts serving.
func (o *ORB) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		ln.Close()
		return errors.New("orb: closed")
	}
	o.ln = ln
	o.addr = ln.Addr().String()
	o.mu.Unlock()

	o.wg.Add(1)
	go o.acceptLoop(ln)
	return nil
}

// Addr returns the listening address, empty for client-only ORBs.
func (o *ORB) Addr() string {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.addr
}

// Register installs a servant under key, replacing any previous one.
func (o *ORB) Register(key string, s Servant) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.servants[key] = s
}

// Unregister removes the servant under key.
func (o *ORB) Unregister(key string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	delete(o.servants, key)
}

// Ref returns an object reference to a locally registered key.
func (o *ORB) Ref(key string) ObjRef { return ObjRef{Addr: o.Addr(), Key: key} }

// Close stops serving, closes accepted and pooled connections, and waits
// for in-flight handlers to finish.
func (o *ORB) Close() error {
	o.mu.Lock()
	o.closed = true
	ln := o.ln
	o.ln = nil
	for c := range o.accepted {
		c.Close()
	}
	o.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	o.poolMu.Lock()
	for addr, pc := range o.pool {
		pc.close(errors.New("orb: closed"))
		delete(o.pool, addr)
	}
	o.poolMu.Unlock()
	o.wg.Wait()
	return nil
}

func (o *ORB) acceptLoop(ln net.Listener) {
	defer o.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		o.mu.Lock()
		if o.closed {
			o.mu.Unlock()
			conn.Close()
			return
		}
		o.accepted[conn] = struct{}{}
		o.mu.Unlock()
		o.wg.Add(1)
		go o.serveConn(conn)
	}
}

// serveConn serves one accepted connection: the wireMagic preface, then
// REQUEST and CREDIT frames until the client goes away. Each two-way
// request runs on its own goroutine, so a slow servant holds up no other
// caller; oneway requests run one at a time in arrival order (see
// onewayQueue), so a caller's oneways execute in the order it sent them.
func (o *ORB) serveConn(conn net.Conn) {
	defer o.wg.Done()
	defer func() {
		conn.Close()
		o.mu.Lock()
		delete(o.accepted, conn)
		o.mu.Unlock()
	}()
	rw := &replyWriter{
		conn:    conn,
		stats:   &o.stats,
		interns: wire.NewInternTable(),
		flows:   make(map[uint64]*streamFlow),
	}
	targets := newTargetDefs()
	defs := wire.NewInternDefs()
	var handlers sync.WaitGroup
	var oneways onewayQueue
	// LIFO defers: when the read loop exits, first unblock any chunk
	// writers waiting on flow credit, then wait the handlers out.
	defer handlers.Wait()
	defer rw.closeFlows()
	br := bufio.NewReaderSize(conn, 32<<10)
	var magic [len(wireMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || string(magic[:]) != wireMagic {
		return // not a peer of this protocol: close before dispatching
	}
	var readBuf []byte
	for {
		h, payload, err := wire.ReadV2Frame(br, readBuf)
		if err != nil {
			return
		}
		if cap(payload) > cap(readBuf) {
			readBuf = payload[:0]
		}
		switch h.Type {
		case wire.V2FrameRequest:
			data := payload
			if h.Flags&wire.V2FlagCompressed != 0 {
				if data, err = wire.DecompressPayload(payload, wire.MaxFrameSize); err != nil {
					return
				}
			}
			// decodeRequestV2 copies every field out of data, so the read
			// buffer is free for reuse as soon as it returns.
			rq, err := decodeRequestV2(data, h.Stream, h.Flags&wire.V2FlagOneway != 0, targets, defs)
			if err != nil {
				return // protocol violation: drop the connection
			}
			if rq.oneway {
				oneways.push(o, rq, &handlers)
				continue
			}
			bulk := h.Flags&wire.V2FlagBulk != 0
			handlers.Add(1)
			go func() {
				defer handlers.Done()
				if err := rw.write(o.execute(rq), rq.id, bulk); err != nil {
					conn.Close()
				}
			}()
		case wire.V2FrameCredit:
			n, sz := binary.Uvarint(payload)
			if sz <= 0 || n > wire.MaxConnStreamBudget {
				return
			}
			rw.credit(h.Stream, int(n))
		default:
			return // clients send only REQUEST and CREDIT
		}
	}
}

// onewayQueue runs one connection's oneway requests one at a time, in
// arrival order, on a worker goroutine that exists only while requests
// are queued. The queue is not bounded, like the per-request goroutines
// of two-way calls.
type onewayQueue struct {
	mu      sync.Mutex
	queue   []*request
	head    int // next request to run
	running bool
}

// push queues rq and starts the worker if it is idle. The worker counts
// against wg, so connection teardown waits for the queue to drain.
func (q *onewayQueue) push(o *ORB, rq *request, wg *sync.WaitGroup) {
	q.mu.Lock()
	q.queue = append(q.queue, rq)
	if q.running {
		q.mu.Unlock()
		return
	}
	q.running = true
	q.mu.Unlock()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			rq, ok := q.next()
			if !ok {
				return
			}
			o.execute(rq) // oneway: no reply travels back
		}
	}()
}

// next pops the oldest queued request. On an empty queue it reports
// false and marks the worker stopped. Once more than half the slice has
// been run it moves the rest to the front, so a worker that never finds
// the queue empty does not grow the backing array without bound.
func (q *onewayQueue) next() (*request, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head == len(q.queue) {
		q.queue, q.head, q.running = q.queue[:0], 0, false
		return nil, false
	}
	rq := q.queue[q.head]
	q.queue[q.head] = nil
	q.head++
	if q.head > len(q.queue)/2 {
		n := copy(q.queue, q.queue[q.head:])
		clear(q.queue[n:])
		q.queue, q.head = q.queue[:n], 0
	}
	return rq, true
}

// replyWriter assembles each reply frame in a per-connection reusable
// buffer and writes it with a single syscall. It also owns the server
// half of multiplexing: small replies go out as one REPLY frame, large
// bodies as CHUNK frames interleavable with other streams, paced by
// per-stream flow-control credit.
type replyWriter struct {
	mu    sync.Mutex
	buf   []byte
	conn  net.Conn
	stats *orbStats

	pbuf    []byte            // payload scratch, guarded by mu
	interns *wire.InternTable // descriptor interning, guarded by mu

	flowMu sync.Mutex
	flows  map[uint64]*streamFlow
}

// write sends one reply. Bodies up to V2ChunkSize travel as a single
// REPLY frame with descriptor interning; larger bodies stream as raw
// CHUNK frames plus a terminating END, releasing the write lock between
// chunks so concurrent small replies interleave instead of queueing
// behind the bulk transfer.
func (rw *replyWriter) write(rp *reply, stream uint64, bulk bool) error {
	if len(rp.body) <= wire.V2ChunkSize {
		return rw.writeSingle(rp, stream, bulk)
	}
	if len(rp.body) > wire.MaxStreamBody {
		return wire.ErrFrameTooLarge
	}
	flow := rw.newFlow(stream)
	defer rw.dropFlow(stream)
	for off := 0; off < len(rp.body); off += wire.V2ChunkSize {
		end := off + wire.V2ChunkSize
		if end > len(rp.body) {
			end = len(rp.body)
		}
		if err := rw.writeChunk(stream, rp.body[off:end], bulk, flow); err != nil {
			return err
		}
	}
	rw.mu.Lock()
	payload := appendEndV2(rw.pbuf[:0], rp)
	rw.pbuf = payload[:0]
	buf := wire.AppendV2Header(rw.buf[:0], wire.V2FrameEnd, 0, stream, len(payload))
	buf = append(buf, payload...)
	written := len(buf)
	_, err := rw.conn.Write(buf)
	rw.buf = buf[:0]
	rw.mu.Unlock()
	if err == nil {
		rw.stats.replies.Add(1)
		rw.stats.addWireBytes(uint64(written))
	}
	return err
}

func (rw *replyWriter) writeSingle(rp *reply, stream uint64, bulk bool) error {
	rw.mu.Lock()
	payload := appendReplyV2(rw.pbuf[:0], rw.interns, rw.stats, rp)
	rw.pbuf = payload[:0]
	if len(payload) > wire.MaxFrameSize {
		rw.mu.Unlock()
		return wire.ErrFrameTooLarge
	}
	var flags uint8
	if bulk {
		if comp, ok := wire.CompressPayload(payload[len(payload):], payload); ok {
			payload = comp
			flags |= wire.V2FlagCompressed
			rw.stats.compressed.Add(1)
		}
	}
	buf := wire.AppendV2Header(rw.buf[:0], wire.V2FrameReply, flags, stream, len(payload))
	buf = append(buf, payload...)
	written := len(buf)
	_, err := rw.conn.Write(buf)
	rw.buf = buf[:0]
	rw.mu.Unlock()
	if err == nil {
		rw.stats.replies.Add(1)
		rw.stats.addWireBytes(uint64(written))
	}
	return err
}

// writeChunk sends one CHUNK frame, blocking on the stream's credit
// window first — off the write lock, so other streams keep flowing while
// this one waits for the receiver.
func (rw *replyWriter) writeChunk(stream uint64, body []byte, bulk bool, flow *streamFlow) error {
	payload := body
	var flags uint8
	if bulk {
		if c, ok := wire.CompressPayload(nil, body); ok {
			payload = c
			flags |= wire.V2FlagCompressed
			rw.stats.compressed.Add(1)
		}
	}
	if !flow.acquire(len(payload)) {
		return &RemoteError{Code: CodeComm, Msg: "stream closed"}
	}
	rw.mu.Lock()
	buf := wire.AppendV2Header(rw.buf[:0], wire.V2FrameChunk, flags, stream, len(payload))
	buf = append(buf, payload...)
	written := len(buf)
	_, err := rw.conn.Write(buf)
	rw.buf = buf[:0]
	rw.mu.Unlock()
	if err == nil {
		rw.stats.addWireBytes(uint64(written))
	}
	return err
}

// streamFlow is the server half of one stream's flow-control window:
// chunk writers acquire credit, the read loop grants it back as CREDIT
// frames arrive.
type streamFlow struct {
	mu     sync.Mutex
	cond   *sync.Cond
	avail  int
	closed bool
}

func newStreamFlow() *streamFlow {
	f := &streamFlow{avail: wire.V2StreamWindow}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// acquire blocks until n bytes of window are available (or the flow is
// closed, returning false).
func (f *streamFlow) acquire(n int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.avail < n && !f.closed {
		f.cond.Wait()
	}
	if f.closed {
		return false
	}
	f.avail -= n
	return true
}

// credit returns n bytes to the window.
func (f *streamFlow) credit(n int) {
	f.mu.Lock()
	f.avail += n
	f.mu.Unlock()
	f.cond.Signal()
}

func (f *streamFlow) close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.cond.Broadcast()
}

func (rw *replyWriter) newFlow(stream uint64) *streamFlow {
	f := newStreamFlow()
	rw.flowMu.Lock()
	rw.flows[stream] = f
	rw.flowMu.Unlock()
	return f
}

func (rw *replyWriter) dropFlow(stream uint64) {
	rw.flowMu.Lock()
	delete(rw.flows, stream)
	rw.flowMu.Unlock()
}

// credit routes an arriving CREDIT frame to its stream's window; credit
// for an already-finished stream is ignored.
func (rw *replyWriter) credit(stream uint64, n int) {
	rw.flowMu.Lock()
	f := rw.flows[stream]
	rw.flowMu.Unlock()
	if f != nil {
		f.credit(n)
	}
}

// closeFlows unblocks every chunk writer when the connection dies.
func (rw *replyWriter) closeFlows() {
	rw.flowMu.Lock()
	flows := make([]*streamFlow, 0, len(rw.flows))
	for _, f := range rw.flows {
		flows = append(flows, f)
	}
	rw.flowMu.Unlock()
	for _, f := range flows {
		f.close()
	}
}

func (o *ORB) execute(rq *request) *reply {
	o.mu.RLock()
	sv, ok := o.servants[rq.key]
	o.mu.RUnlock()
	if !ok {
		return errorReply(rq.id, replySysError, &RemoteError{Code: CodeNoServant, Msg: rq.key})
	}
	start := time.Now()
	body, err := sv.Dispatch(rq.method, rq.args)
	dur := time.Since(start)
	o.histFor(o.servantHist, metricServant, rq.method).Observe(dur)

	var rp *reply
	if err != nil {
		var re *RemoteError
		if !errors.As(err, &re) {
			re = &RemoteError{Code: CodeApplication, Msg: err.Error()}
		}
		rp = errorReply(rq.id, replyUserError, re)
	} else {
		rp = &reply{id: rq.id, status: replyOK, body: body}
	}
	// Echo the trace trailer when the request carried one. The servant
	// hop is recorded where it executed; clocks across servers need not
	// agree, so its offset is left zero.
	if rq.trace != 0 {
		rp.trace = rq.trace
		rp.servantNanos = uint64(dur.Nanoseconds())
		telemetry.Default().RecordRemoteSpan(telemetry.TraceID(rq.trace), telemetry.Span{
			Hop:      telemetry.HopServant,
			Op:       rq.method,
			Loc:      o.Addr(),
			DurNanos: dur.Nanoseconds(),
		})
	}
	return rp
}

func errorReply(id uint64, status uint8, re *RemoteError) *reply {
	body, err := Marshal(re)
	if err != nil {
		body = nil
	}
	return &reply{id: id, status: status, body: body}
}

// Invoke calls method on the object identified by ref, marshalling in and
// unmarshalling the result into out (which may be nil when the method
// returns nothing of interest).
func (o *ORB) Invoke(ctx context.Context, ref ObjRef, method string, in, out any) error {
	if ref.IsZero() {
		return errors.New("orb: invoke on zero ObjRef")
	}
	// Sampling happened at the edge: an unsampled request carries no trace
	// in its context, so this is one pointer lookup and no allocation.
	tr := telemetry.TraceFrom(ctx)
	var traceID uint64
	if tr != nil {
		traceID = uint64(tr.ID())
	}
	t0 := time.Now()
	args, err := Marshal(in)
	if err != nil {
		return err
	}
	for attempt := 0; ; attempt++ {
		pc, err := o.getConn(ctx, ref.Addr)
		if err != nil {
			return err
		}
		tSent := time.Now()
		body, meta, err := pc.roundTrip(ctx, ref.Key, method, args, traceID)
		if err != nil {
			// A connection that died under us is retried once on a fresh
			// connection; real remote errors propagate.
			var re *RemoteError
			if errors.As(err, &re) && re.Code == CodeComm && attempt == 0 {
				continue
			}
			return err
		}
		end := time.Now()
		o.histFor(o.invokeHist, metricInvoke, method).Observe(end.Sub(t0))
		if tr != nil {
			// queue = marshalling + pooled-connection acquisition; rpc =
			// round trip minus the servant time echoed in the reply
			// trailer.
			loc := o.Addr()
			tr.AddSpan(telemetry.HopQueue, method, loc, ref.Addr, t0, tSent.Sub(t0))
			rpc := end.Sub(tSent)
			if s := time.Duration(meta.ServantNanos); s < rpc {
				rpc -= s
			}
			tr.AddSpan(telemetry.HopRPC, method, loc, ref.Addr, tSent, rpc)
		}
		if out == nil {
			return nil
		}
		return Unmarshal(body, out)
	}
}

// SetDialTimeout changes the connection-establishment bound at runtime.
func (o *ORB) SetDialTimeout(d time.Duration) { o.dialTimeout.Store(int64(d)) }

// getConn returns a live pooled connection to addr, dialing if needed. A
// failed dial is COMM_FAILURE, unless the caller's ctx ended: then the
// error wraps ctx.Err(), so a cancelled caller is not a failed peer.
func (o *ORB) getConn(ctx context.Context, addr string) (*poolConn, error) {
	o.poolMu.Lock()
	pc, ok := o.pool[addr]
	if ok && !pc.dead() {
		o.poolMu.Unlock()
		return pc, nil
	}
	delete(o.pool, addr)
	o.poolMu.Unlock()

	dctx := ctx
	if d := time.Duration(o.dialTimeout.Load()); d > 0 {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	conn, err := o.dial(dctx, "tcp", addr)
	if err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("orb: dial %s: %w", addr, ctx.Err())
		}
		return nil, &RemoteError{Code: CodeComm, Msg: err.Error()}
	}
	pc = newPoolConn(conn, &o.stats)

	o.poolMu.Lock()
	if existing, ok := o.pool[addr]; ok && !existing.dead() {
		// Lost the race; use the winner.
		o.poolMu.Unlock()
		pc.close(errors.New("orb: duplicate connection"))
		return existing, nil
	}
	o.pool[addr] = pc
	o.poolMu.Unlock()
	return pc, nil
}

// InvokeOneway sends a request that expects no reply — the CORBA oneway
// operation. It returns once the request is written; delivery shares the
// pooled connection's ordering with other invocations but success of the
// remote execution is not observed.
func (o *ORB) InvokeOneway(ctx context.Context, ref ObjRef, method string, in any) error {
	if ref.IsZero() {
		return errors.New("orb: oneway invoke on zero ObjRef")
	}
	args, err := Marshal(in)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for attempt := 0; ; attempt++ {
		pc, err := o.getConn(ctx, ref.Addr)
		if err != nil {
			return err
		}
		err = pc.sendOneway(ref.Key, method, args)
		if err == nil {
			o.histFor(o.onewayHist, metricOneway, method).Observe(time.Since(t0))
			return nil
		}
		var re *RemoteError
		if errors.As(err, &re) && re.Code == CodeComm && attempt == 0 {
			continue
		}
		return err
	}
}

// DropConn discards any pooled connection to addr, forcing the next
// Invoke to redial. Used when a peer is believed restarted.
func (o *ORB) DropConn(addr string) {
	o.poolMu.Lock()
	if pc, ok := o.pool[addr]; ok {
		pc.close(fmt.Errorf("orb: connection to %s dropped", addr))
		delete(o.pool, addr)
	}
	o.poolMu.Unlock()
}
