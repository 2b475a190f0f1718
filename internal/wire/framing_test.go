package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("a"), bytes.Repeat([]byte("xy"), 5000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("WriteFrame(%d bytes): %v", len(p), err)
		}
	}
	for _, p := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if !bytes.Equal(got, p) {
			t.Errorf("frame mismatch: got %d bytes, want %d", len(got), len(p))
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Errorf("read past end: err = %v, want io.EOF", err)
	}
}

func TestWriteFrameTooLarge(t *testing.T) {
	err := WriteFrame(io.Discard, make([]byte, MaxFrameSize+1))
	if err != ErrFrameTooLarge {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameHostileHeader(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(MaxFrameSize+1))
	_, err := ReadFrame(bytes.NewReader(hdr[:]))
	if err != ErrFrameTooLarge {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	_, err := ReadFrame(bytes.NewReader(data[:len(data)-3]))
	if err != io.ErrUnexpectedEOF {
		t.Errorf("err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestConnSendRecv(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		a, b := net.Pipe()
		ca, cb := NewConn(a), NewConn(b)
		defer ca.Close()
		defer cb.Close()

		want := NewCommand("app", "cl", "op", Param{"k", "v"})
		errc := make(chan error, 1)
		go func() { errc <- ca.Send(want) }()
		got, err := cb.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if err := <-errc; err != nil {
			t.Fatalf("Send: %v", err)
		}
		if !want.Equal(got) {
			t.Errorf("got %v, want %v", got, want)
		}
		sm, sb, _, _ := ca.Stats()
		_, _, rm, rb := cb.Stats()
		if sm != 1 || rm != 1 {
			t.Errorf("stats msgs: sent=%d recv=%d", sm, rm)
		}
		if sb == 0 || sb != rb {
			t.Errorf("stats bytes: sent=%d recv=%d", sb, rb)
		}
	})
}

func TestConnConcurrentSend(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()

	const senders, perSender = 8, 50
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				m := NewUpdate("app", uint64(s*perSender+i))
				if err := ca.Send(m); err != nil {
					t.Errorf("Send: %v", err)
					return
				}
			}
		}(s)
	}
	seen := make(map[uint64]bool)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < senders*perSender; i++ {
			m, err := cb.Recv()
			if err != nil {
				t.Errorf("Recv: %v", err)
				return
			}
			if seen[m.Seq] {
				t.Errorf("duplicate seq %d", m.Seq)
			}
			seen[m.Seq] = true
		}
	}()
	wg.Wait()
	<-done
	if len(seen) != senders*perSender {
		t.Errorf("received %d distinct messages, want %d", len(seen), senders*perSender)
	}
}

// Stream property: any sequence of random messages sent over a Conn is
// received identically and in order.
func TestConnStreamProperty(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		r := rand.New(rand.NewSource(5))
		a, b := net.Pipe()
		ca, cb := NewConn(a), NewConn(b)
		defer ca.Close()
		defer cb.Close()

		const n = 200
		msgs := make([]*Message, n)
		for i := range msgs {
			msgs[i] = randomMessage(r)
		}
		errc := make(chan error, 1)
		go func() {
			for _, m := range msgs {
				if err := ca.Send(m); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}()
		for i := 0; i < n; i++ {
			got, err := cb.Recv()
			if err != nil {
				t.Fatalf("Recv %d: %v", i, err)
			}
			if !msgs[i].Equal(got) {
				t.Fatalf("message %d mutated in transit:\n sent %v\n got  %v", i, msgs[i], got)
			}
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	})
}

func TestConnRecvCorruptFrame(t *testing.T) {
	a, b := net.Pipe()
	cb := NewConn(b)
	defer a.Close()
	defer cb.Close()
	go func() {
		// A frame whose payload is not a valid message.
		WriteFrame(a, []byte{0xFF, 0xFF})
	}()
	if _, err := cb.Recv(); err == nil {
		t.Error("Recv of corrupt frame succeeded")
	}
}
