package orb

import (
	"bufio"
	"context"
	"encoding/binary"
	"net"
	"sync"

	"discover/internal/wire"
)

// poolConn is one multiplexed client connection: many in-flight requests
// share it, matched to replies by request id (the frame's stream id).
// Targets and descriptors are interned per connection, and large reply
// bodies arrive as CHUNK frames reassembled per stream.
type poolConn struct {
	conn    net.Conn
	stats   *orbStats
	writeMu sync.Mutex
	sendBuf []byte            // frame assembly buffer, guarded by writeMu
	preface bool              // wireMagic not yet written, guarded by writeMu
	targets *targetTable      // sender target interning, guarded by writeMu
	interns *wire.InternTable // sender descriptor interning, guarded by writeMu
	pbuf    []byte            // payload scratch, guarded by writeMu
	defs    *wire.InternDefs  // reply descriptor definitions, read loop only

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan *reply
	err     error
}

// newPoolConn wraps an established connection and starts its read loop.
// The connection preface rides in front of the first frame written, so
// opening a connection costs no extra write and no round trip.
func newPoolConn(conn net.Conn, stats *orbStats) *poolConn {
	pc := &poolConn{
		conn:    conn,
		stats:   stats,
		preface: true,
		targets: newTargetTable(),
		interns: wire.NewInternTable(),
		defs:    wire.NewInternDefs(),
		pending: make(map[uint64]chan *reply),
	}
	go pc.readLoop()
	return pc
}

// frameBuf returns the empty send buffer, led by the connection preface
// until the first write succeeds. Callers hold writeMu.
func (pc *poolConn) frameBuf() []byte {
	if pc.preface {
		return append(pc.sendBuf[:0], wireMagic...)
	}
	return pc.sendBuf[:0]
}

// writeLocked writes buf, assembled on frameBuf, and keeps its storage
// for the next frame. Callers hold writeMu.
func (pc *poolConn) writeLocked(buf []byte) error {
	_, err := pc.conn.Write(buf)
	pc.sendBuf = buf[:0]
	if err != nil {
		return err
	}
	pc.preface = false
	pc.stats.addWireBytes(uint64(len(buf)))
	return nil
}

func (pc *poolConn) dead() bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.err != nil
}

// close fails all pending invocations and closes the connection.
func (pc *poolConn) close(err error) {
	pc.mu.Lock()
	if pc.err == nil {
		pc.err = err
	}
	pending := pc.pending
	pc.pending = make(map[uint64]chan *reply)
	pc.mu.Unlock()
	pc.conn.Close()
	for _, ch := range pending {
		close(ch)
	}
}

// deliver hands a decoded reply to its waiting invocation, dropping it
// when the waiter has gone (cancelled or timed out).
func (pc *poolConn) deliver(rp *reply) {
	pc.mu.Lock()
	ch, ok := pc.pending[rp.id]
	delete(pc.pending, rp.id)
	pc.mu.Unlock()
	if ok {
		ch <- rp
	}
}

// readLoop demultiplexes reply frames: complete replies deliver directly;
// chunked bodies accumulate per stream until END, with every received
// chunk immediately credited back so the sender's flow-control window
// keeps moving even for streams whose waiter has gone. Budget bounds
// protect the receive side: one body may not exceed MaxStreamBody and
// all partial bodies together may not exceed MaxConnStreamBudget.
func (pc *poolConn) readLoop() {
	br := bufio.NewReaderSize(pc.conn, 32<<10)
	var frameBuf []byte
	streams := make(map[uint64][]byte)
	budget := 0
	violation := func(msg string) {
		pc.close(&RemoteError{Code: CodeComm, Msg: msg})
	}
	for {
		h, payload, err := wire.ReadV2Frame(br, frameBuf)
		if err != nil {
			pc.close(&RemoteError{Code: CodeComm, Msg: "connection lost: " + err.Error()})
			return
		}
		if cap(payload) > cap(frameBuf) {
			frameBuf = payload[:0]
		}
		data := payload
		if h.Flags&wire.V2FlagCompressed != 0 {
			if data, err = wire.DecompressPayload(payload, wire.MaxFrameSize); err != nil {
				violation("undecodable compressed frame")
				return
			}
		}
		switch h.Type {
		case wire.V2FrameReply:
			rp, err := decodeReplyV2(data, h.Stream, pc.defs)
			if err != nil {
				violation("protocol violation")
				return
			}
			pc.deliver(rp)
		case wire.V2FrameChunk:
			pc.mu.Lock()
			_, wanted := pc.pending[h.Stream]
			pc.mu.Unlock()
			if wanted {
				body := append(streams[h.Stream], data...)
				if len(body) > wire.MaxStreamBody {
					violation("streamed body over MaxStreamBody")
					return
				}
				budget += len(data)
				if budget > wire.MaxConnStreamBudget {
					violation("streamed bodies over connection budget")
					return
				}
				streams[h.Stream] = body
			}
			// Credit what arrived on the wire — including frames for
			// abandoned streams, so the sender never stalls on a waiter
			// that left.
			if err := pc.writeCredit(h.Stream, len(payload)); err != nil {
				pc.close(&RemoteError{Code: CodeComm, Msg: "write failed: " + err.Error()})
				return
			}
		case wire.V2FrameEnd:
			body := streams[h.Stream]
			delete(streams, h.Stream)
			budget -= len(body)
			rp, err := decodeEndV2(data, h.Stream, body)
			if err != nil {
				violation("protocol violation")
				return
			}
			pc.deliver(rp)
		default:
			violation("unexpected frame " + h.Type.String())
			return
		}
	}
}

// writeCredit grants n bytes of flow-control credit on stream.
func (pc *poolConn) writeCredit(stream uint64, n int) error {
	var payload [binary.MaxVarintLen64]byte
	pn := binary.PutUvarint(payload[:], uint64(n))
	pc.writeMu.Lock()
	defer pc.writeMu.Unlock()
	buf := wire.AppendV2Header(pc.frameBuf(), wire.V2FrameCredit, 0, stream, pn)
	return pc.writeLocked(append(buf, payload[:pn]...))
}

// writeRequest encodes rq as one REQUEST frame in the connection's
// reusable buffer and issues a single Write — the request path's only
// syscall. The target and the args descriptor are interned, and a bulk
// request may be compressed.
func (pc *poolConn) writeRequest(rq *request, bulk bool) error {
	pc.writeMu.Lock()
	defer pc.writeMu.Unlock()
	payload := appendRequestV2(pc.pbuf[:0], pc.targets, pc.interns, pc.stats, rq)
	pc.pbuf = payload[:0]
	if len(payload) > wire.MaxFrameSize {
		return wire.ErrFrameTooLarge
	}
	var flags uint8
	if rq.oneway {
		flags |= wire.V2FlagOneway
	}
	if bulk {
		flags |= wire.V2FlagBulk
		if comp, ok := wire.CompressPayload(payload[len(payload):], payload); ok {
			payload = comp
			flags |= wire.V2FlagCompressed
			pc.stats.compressed.Add(1)
		}
	}
	buf := wire.AppendV2Header(pc.frameBuf(), wire.V2FrameRequest, flags, rq.id, len(payload))
	buf = append(buf, payload...)
	err := pc.writeLocked(buf)
	if err == nil {
		pc.stats.writes.Add(1)
		pc.stats.bytesOut.Add(uint64(len(buf)))
	}
	return err
}

// sendOneway writes a request that expects no reply.
func (pc *poolConn) sendOneway(key, method string, args []byte) error {
	pc.mu.Lock()
	if pc.err != nil {
		err := pc.err
		pc.mu.Unlock()
		return err
	}
	pc.nextID++
	id := pc.nextID
	pc.mu.Unlock()

	err := pc.writeRequest(&request{id: id, key: key, method: method, args: args, oneway: true}, false)
	if err != nil {
		pc.close(&RemoteError{Code: CodeComm, Msg: "write failed: " + err.Error()})
		return &RemoteError{Code: CodeComm, Msg: err.Error()}
	}
	pc.stats.oneways.Add(1)
	return nil
}

// roundTrip sends one request and waits for its reply or ctx cancellation.
// trace, when nonzero, rides as the frame's trailing metadata; the
// returned TraceMeta is the reply's echo. A WithBulk context flags the
// exchange for compression.
func (pc *poolConn) roundTrip(ctx context.Context, key, method string, args []byte, trace uint64) ([]byte, wire.TraceMeta, error) {
	pc.mu.Lock()
	if pc.err != nil {
		err := pc.err
		pc.mu.Unlock()
		return nil, wire.TraceMeta{}, err
	}
	pc.nextID++
	id := pc.nextID
	ch := make(chan *reply, 1)
	pc.pending[id] = ch
	pc.mu.Unlock()

	err := pc.writeRequest(&request{id: id, key: key, method: method, args: args, trace: trace}, IsBulk(ctx))
	if err != nil {
		pc.mu.Lock()
		delete(pc.pending, id)
		pc.mu.Unlock()
		pc.close(&RemoteError{Code: CodeComm, Msg: "write failed: " + err.Error()})
		return nil, wire.TraceMeta{}, &RemoteError{Code: CodeComm, Msg: err.Error()}
	}
	pc.stats.invocations.Add(1)

	select {
	case rp, ok := <-ch:
		if !ok {
			pc.mu.Lock()
			err := pc.err
			pc.mu.Unlock()
			if err == nil {
				err = &RemoteError{Code: CodeComm, Msg: "connection closed"}
			}
			return nil, wire.TraceMeta{}, err
		}
		meta := wire.TraceMeta{Trace: rp.trace, ServantNanos: rp.servantNanos}
		switch rp.status {
		case replyOK:
			return rp.body, meta, nil
		case replyUserError, replySysError:
			re := &RemoteError{}
			if err := Unmarshal(rp.body, re); err != nil {
				return nil, meta, &RemoteError{Code: CodeMarshal, Msg: "undecodable remote error"}
			}
			return nil, meta, re
		default:
			return nil, meta, &RemoteError{Code: CodeComm, Msg: "unknown reply status"}
		}
	case <-ctx.Done():
		pc.mu.Lock()
		delete(pc.pending, id)
		pc.mu.Unlock()
		return nil, wire.TraceMeta{}, ctx.Err()
	}
}
