package wire

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// nopConn is a net.Conn that discards writes without allocating, so
// AllocsPerRun isolates the send path itself.
type nopConn struct{}

func (nopConn) Read(p []byte) (int, error)       { return 0, io.EOF }
func (nopConn) Write(p []byte) (int, error)      { return len(p), nil }
func (nopConn) Close() error                     { return nil }
func (nopConn) LocalAddr() net.Addr              { return nil }
func (nopConn) RemoteAddr() net.Addr             { return nil }
func (nopConn) SetDeadline(time.Time) error      { return nil }
func (nopConn) SetReadDeadline(time.Time) error  { return nil }
func (nopConn) SetWriteDeadline(time.Time) error { return nil }

func allocTestMessage() *Message {
	return NewUpdate("rutgers#12", 42,
		Param{Key: "m.step", Value: "1200"},
		Param{Key: "m.energy", Value: "3.14159"},
	)
}

// The binary codec must encode into a caller-reused buffer without
// allocating: this is the regression gate for the zero-copy send path.
func TestBinaryEncodeAllocs(t *testing.T) {
	m := allocTestMessage()
	buf, err := BinaryCodec{}.Encode(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = BinaryCodec{}.Encode(buf[:0], m)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("BinaryCodec.Encode into reused buffer: %v allocs/op, want 0", allocs)
	}
}

// Conn.Send assembles the length prefix and payload in a connection-owned
// buffer and issues one Write; steady state must not allocate.
func TestConnSendAllocs(t *testing.T) {
	c := NewConn(nopConn{})
	m := allocTestMessage()
	if err := c.Send(m); err != nil { // warm the send buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Conn.Send: %v allocs/op, want 0", allocs)
	}
}

// WriteFrame draws its assembly buffer from a pool; steady state should be
// allocation-free (a GC emptying the pool mid-run is tolerated).
func TestWriteFrameAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 512)
	if err := WriteFrame(io.Discard, payload); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := WriteFrame(io.Discard, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("WriteFrame: %v allocs/op, want <= 1", allocs)
	}
}

// countingWriter counts Write calls to assert syscall coalescing.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

func TestWriteFrameSingleWrite(t *testing.T) {
	var w countingWriter
	if err := WriteFrame(&w, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Errorf("WriteFrame issued %d writes, want 1", w.writes)
	}
	got, err := ReadFrame(&w.Buffer)
	if err != nil || string(got) != "payload" {
		t.Errorf("round trip: %q, %v", got, err)
	}
}

// WriteFrames must produce the identical byte stream to sequential
// WriteFrame calls, in one write.
func TestWriteFramesEquivalence(t *testing.T) {
	payloads := [][]byte{[]byte("a"), nil, bytes.Repeat([]byte("zq"), 3000), []byte("tail")}

	var sequential bytes.Buffer
	for _, p := range payloads {
		if err := WriteFrame(&sequential, p); err != nil {
			t.Fatal(err)
		}
	}
	var coalesced countingWriter
	if err := WriteFrames(&coalesced, payloads...); err != nil {
		t.Fatal(err)
	}
	if coalesced.writes != 1 {
		t.Errorf("WriteFrames issued %d writes, want 1", coalesced.writes)
	}
	if !bytes.Equal(sequential.Bytes(), coalesced.Buffer.Bytes()) {
		t.Error("WriteFrames byte stream differs from sequential WriteFrame")
	}
	for i, p := range payloads {
		got, err := ReadFrame(&coalesced.Buffer)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, p) {
			t.Errorf("frame %d mismatch: got %d bytes, want %d", i, len(got), len(p))
		}
	}
	if err := WriteFrames(io.Discard); err != nil {
		t.Errorf("empty WriteFrames: %v", err)
	}
	if err := WriteFrames(io.Discard, make([]byte, MaxFrameSize+1)); err != ErrFrameTooLarge {
		t.Errorf("oversized WriteFrames err = %v, want ErrFrameTooLarge", err)
	}
}

// ReadFrameBuf reuses the provided buffer when it fits and still returns
// intact payloads when it does not.
func TestReadFrameBufReuse(t *testing.T) {
	var buf bytes.Buffer
	small := []byte("small")
	big := bytes.Repeat([]byte("B"), 1024)
	for _, p := range [][]byte{small, big, small} {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	scratch := make([]byte, 0, 16)
	got, err := ReadFrameBuf(&buf, scratch)
	if err != nil || !bytes.Equal(got, small) {
		t.Fatalf("small frame: %q, %v", got, err)
	}
	if &got[0] != &scratch[:1][0] {
		t.Error("small frame did not reuse the provided buffer")
	}
	got, err = ReadFrameBuf(&buf, scratch)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("big frame: %d bytes, %v", len(got), err)
	}
	got, err = ReadFrameBuf(&buf, got[:0]) // reuse the grown buffer
	if err != nil || !bytes.Equal(got, small) {
		t.Fatalf("reuse after growth: %q, %v", got, err)
	}
}
