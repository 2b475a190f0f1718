package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// MaxFrameSize bounds a single frame on any DISCOVER stream. It is sized to
// admit a maximal Data payload plus envelope overhead.
const MaxFrameSize = MaxDataLen + 1<<20

// ErrFrameTooLarge is returned when a peer announces a frame above
// MaxFrameSize; the connection should be dropped.
var ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrameSize")

// maxPooledBuf caps the capacity of buffers returned to the frame pool so
// a single jumbo frame does not pin megabytes for the process lifetime.
const maxPooledBuf = 64 << 10

// framePool recycles frame-assembly buffers across WriteFrame calls. The
// pool stores *[]byte to avoid an allocation per Put.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func getFrameBuf() *[]byte { return framePool.Get().(*[]byte) }

func putFrameBuf(bp *[]byte) {
	if cap(*bp) > maxPooledBuf {
		return
	}
	*bp = (*bp)[:0]
	framePool.Put(bp)
}

// WriteFrame writes one length-prefixed frame (big-endian uint32 length
// followed by payload) to w. Header and payload are assembled in a pooled
// buffer and issued as a single Write, so one frame costs one syscall (and
// one write event on shaped links, see internal/netsim).
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	bp := getFrameBuf()
	buf := append((*bp)[:0], 0, 0, 0, 0)
	binary.BigEndian.PutUint32(buf[:4], uint32(len(payload)))
	buf = append(buf, payload...)
	_, err := w.Write(buf)
	*bp = buf
	putFrameBuf(bp)
	return err
}

// WriteFrames coalesces several length-prefixed frames into one buffer and
// one Write. Receivers observe exactly the same byte stream as len(payloads)
// sequential WriteFrame calls; the only difference is the syscall count.
func WriteFrames(w io.Writer, payloads ...[]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	for _, p := range payloads {
		if len(p) > MaxFrameSize {
			return ErrFrameTooLarge
		}
	}
	bp := getFrameBuf()
	buf := (*bp)[:0]
	for _, p := range payloads {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(p)))
		buf = append(buf, hdr[:]...)
		buf = append(buf, p...)
	}
	_, err := w.Write(buf)
	*bp = buf
	putFrameBuf(bp)
	return err
}

// ReadFrame reads one length-prefixed frame from r. The returned slice is
// freshly allocated.
func ReadFrame(r io.Reader) ([]byte, error) {
	return ReadFrameBuf(r, nil)
}

// ReadFrameBuf reads one length-prefixed frame from r into buf when its
// capacity suffices, allocating only for larger frames. The returned slice
// aliases buf in the reuse case, so callers must fully consume (or copy)
// the payload before the next ReadFrameBuf with the same buffer — the
// single-reader discipline every channel loop in this repository already
// follows.
func ReadFrameBuf(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	var payload []byte
	if uint32(cap(buf)) >= n {
		payload = buf[:n]
	} else {
		payload = make([]byte, n)
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}

// Conn frames BinaryCodec-encoded messages over a stream. Send is
// safe for concurrent use; Recv must be called from a single goroutine at a
// time, which is how every channel loop in this repository is structured.
type Conn struct {
	raw     net.Conn
	sendMu  sync.Mutex
	sendBuf []byte
	recvBuf []byte // reused by Recv; safe under the single-reader rule

	sentMsgs  atomic.Uint64
	sentBytes atomic.Uint64
	recvMsgs  atomic.Uint64
	recvBytes atomic.Uint64
}

// NewConn wraps raw. The Conn takes ownership of raw.
func NewConn(raw net.Conn) *Conn {
	return &Conn{raw: raw}
}

// Raw exposes the underlying connection (for deadlines and addresses).
func (c *Conn) Raw() net.Conn { return c.raw }

// Send encodes and writes one message. The header and payload go out in a
// single Write so that one message corresponds to one write on shaped
// links (see internal/netsim).
func (c *Conn) Send(m *Message) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	buf := append(c.sendBuf[:0], 0, 0, 0, 0) // room for the length prefix
	buf, err := BinaryCodec{}.Encode(buf, m)
	if err != nil {
		return err
	}
	c.sendBuf = buf[:0] // retain capacity for the next send
	if len(buf)-4 > MaxFrameSize {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	if _, err := c.raw.Write(buf); err != nil {
		return err
	}
	c.sentMsgs.Add(1)
	c.sentBytes.Add(uint64(len(buf)))
	return nil
}

// Recv reads and decodes one message. The frame is read into a buffer
// reused across calls; Decode copies every field out, so
// the returned Message never aliases it.
func (c *Conn) Recv() (*Message, error) {
	payload, err := ReadFrameBuf(c.raw, c.recvBuf)
	if err != nil {
		return nil, err
	}
	if cap(payload) > cap(c.recvBuf) && cap(payload) <= maxPooledBuf {
		c.recvBuf = payload[:0]
	}
	m, err := BinaryCodec{}.Decode(payload)
	if err != nil {
		return nil, fmt.Errorf("wire: decoding frame: %w", err)
	}
	c.recvMsgs.Add(1)
	c.recvBytes.Add(uint64(len(payload)) + 4)
	return m, nil
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.raw.Close() }

// Stats reports cumulative message and byte counts in both directions.
// Counters are atomics, so concurrent senders never serialize on stats
// bookkeeping.
func (c *Conn) Stats() (sentMsgs, sentBytes, recvMsgs, recvBytes uint64) {
	return c.sentMsgs.Load(), c.sentBytes.Load(), c.recvMsgs.Load(), c.recvBytes.Load()
}
