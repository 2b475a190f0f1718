package orb

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"discover/internal/wire"
)

// echoServant echoes args for "echo" and returns a caller-sized blob for
// "blob" (args = decimal byte count).
type echoServant struct{}

func (echoServant) Dispatch(method string, args []byte) ([]byte, error) {
	size := func() int {
		var s []byte
		var n int
		if Unmarshal(args, &s) == nil {
			fmt.Sscanf(string(s), "%d", &n)
		}
		return n
	}
	switch method {
	case "echo":
		return args, nil
	case "blob":
		body := make([]byte, size())
		for i := range body {
			body[i] = byte(i)
		}
		return Marshal(body)
	case "text":
		return Marshal([]byte(strings.Repeat("compressible directory entry ", size())))
	case "boom":
		return nil, errors.New("kaboom")
	}
	return nil, &RemoteError{Code: CodeNoMethod, Msg: method}
}

func newV2ServerORB(t *testing.T) *ORB {
	t.Helper()
	o := New()
	if err := o.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { o.Close() })
	o.Register("obj", echoServant{})
	return o
}

type v2pair struct {
	client, server *ORB
	ref            ObjRef
}

func newV2Pair(t *testing.T) v2pair {
	t.Helper()
	server := newV2ServerORB(t)
	client := New()
	t.Cleanup(func() { client.Close() })
	return v2pair{client: client, server: server, ref: server.Ref("obj")}
}

type rawEcho struct {
	A int
	B string
}

// countingDialer dials TCP and records what crosses the client's
// connections: how many were opened, each Write, and the bytes read.
type countingDialer struct {
	dials atomic.Int64
	read  atomic.Int64
	mu    sync.Mutex
	wrote [][]byte // every client Write, in order
}

func (d *countingDialer) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	var nd net.Dialer
	c, err := nd.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	d.dials.Add(1)
	return &countingConn{Conn: c, d: d}, nil
}

func (d *countingDialer) writes() [][]byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([][]byte(nil), d.wrote...)
}

type countingConn struct {
	net.Conn
	d *countingDialer
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.d.read.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.d.mu.Lock()
	c.d.wrote = append(c.d.wrote, append([]byte(nil), p...))
	c.d.mu.Unlock()
	return c.Conn.Write(p)
}

func TestV2Negotiation(t *testing.T) {
	server := newV2ServerORB(t)
	var d countingDialer
	client := New(WithDialer(d.dial))
	defer client.Close()
	ref := server.Ref("obj")

	var out rawEcho
	if err := client.Invoke(context.Background(), ref, "echo",
		rawEcho{A: 1, B: "x"}, &out); err != nil {
		t.Fatal(err)
	}
	// No negotiation round trip: the first call is one Write carrying the
	// preface and the REQUEST frame.
	w := d.writes()
	if len(w) != 1 || !bytes.HasPrefix(w[0], []byte(wireMagic)) {
		t.Fatalf("first call wrote %d buffers, want 1 led by %q", len(w), wireMagic)
	}
	if h, _, err := wire.ParseV2Header(w[0][len(wireMagic):]); err != nil || h.Type != wire.V2FrameRequest {
		t.Fatalf("frame after the preface: %+v, %v", h, err)
	}
	st := client.Stats()
	if st.Bytes == 0 {
		t.Fatal("no bytes counted after an invocation")
	}
	// The gob args of the first call defined a descriptor; repeats hit it.
	if st.InternDefs == 0 {
		t.Fatal("no descriptor definitions counted")
	}
	for i := 0; i < 5; i++ {
		if err := client.Invoke(context.Background(), ref, "echo",
			rawEcho{A: i, B: "y"}, &out); err != nil {
			t.Fatal(err)
		}
	}
	st2 := client.Stats()
	if st2.InternHits < 4 {
		t.Fatalf("InternHits = %d after repeated same-type calls", st2.InternHits)
	}
	// Interning must shrink repeat requests: later identical calls cost
	// fewer bytes than the first (which shipped the descriptor + target).
	perCall := (st2.Bytes - st.Bytes) / 5
	if perCall >= st.Bytes {
		t.Fatalf("repeat call bytes %d not below first-call bytes %d", perCall, st.Bytes)
	}
	w = d.writes()
	for i, b := range w[1:] {
		if bytes.HasPrefix(b, []byte(wireMagic)) {
			t.Fatalf("write %d repeats the connection preface", i+1)
		}
	}
	if n := d.dials.Load(); n != 1 {
		t.Fatalf("%d connections dialed, want 1", n)
	}
}

func TestV2ChunkedReply(t *testing.T) {
	p := newV2Pair(t)
	// A 1.5 MiB body: far above V2ChunkSize, so it streams as chunks.
	var out []byte
	if err := p.client.Invoke(context.Background(), p.ref, "blob",
		[]byte("1500000"), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1500000 {
		t.Fatalf("body length %d", len(out))
	}
	for i := 0; i < len(out); i += 100003 {
		if out[i] != byte(i) {
			t.Fatalf("body corrupted at %d", i)
		}
	}
	// Errors still arrive while streaming works.
	err := p.client.Invoke(context.Background(), p.ref, "boom", []byte{}, nil)
	if !IsRemote(err, CodeApplication) {
		t.Fatalf("boom: %v", err)
	}
}

func TestV2BulkCompression(t *testing.T) {
	server := newV2ServerORB(t)
	ref := server.Ref("obj")
	// Reply bytes are counted as the client reads them: by the time
	// Invoke returns, the client has read the whole reply.
	var plainD, bulkD countingDialer
	plain := New(WithDialer(plainD.dial))
	defer plain.Close()
	bulk := New(WithDialer(bulkD.dial))
	defer bulk.Close()

	// The same highly compressible reply with and without WithBulk.
	var plainOut, bulkOut []byte
	if err := plain.Invoke(context.Background(), ref, "text", []byte("2000"), &plainOut); err != nil {
		t.Fatal(err)
	}
	if err := bulk.Invoke(WithBulk(context.Background()), ref, "text", []byte("2000"), &bulkOut); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plainOut, bulkOut) {
		t.Fatal("bulk reply differs from plain reply")
	}
	if server.Stats().Compressed == 0 {
		t.Fatal("bulk reply was not compressed")
	}
	plainBytes, bulkBytes := plainD.read.Load(), bulkD.read.Load()
	if bulkBytes*2 > plainBytes {
		t.Fatalf("compressed reply %d bytes vs plain %d: expected <50%%", bulkBytes, plainBytes)
	}
}

func TestV2CancelMidStreamDoesNotWedgeConnection(t *testing.T) {
	p := newV2Pair(t)
	// Cancel a bulk streamed reply mid-flight. The client keeps crediting
	// abandoned streams, so the server-side chunk writer must complete and
	// the connection must remain usable for subsequent invocations.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	var out []byte
	err := p.client.Invoke(ctx, p.ref, "blob", []byte("8000000"), &out)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled invoke: %v", err)
	}
	// Whether or not the cancel won the race, the connection must still
	// serve invocations afterwards.
	deadline, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	var echo rawEcho
	for i := 0; i < 20; i++ {
		if err := p.client.Invoke(deadline, p.ref, "echo", rawEcho{A: i}, &echo); err != nil {
			t.Fatalf("post-cancel invoke %d: %v", i, err)
		}
	}
}

func TestV2TraceTrailerPropagates(t *testing.T) {
	p := newV2Pair(t)
	// Send a traced request straight through roundTrip so the echoed
	// trailer is observable.
	ctx := context.Background()
	var out rawEcho
	if err := p.client.Invoke(ctx, p.ref, "echo", rawEcho{A: 1}, &out); err != nil {
		t.Fatal(err)
	}
	pc, err := p.client.getConn(ctx, p.ref.Addr)
	if err != nil {
		t.Fatal(err)
	}
	args, _ := Marshal(rawEcho{A: 2})
	_, meta, err := pc.roundTrip(ctx, "obj", "echo", args, 0xDEC0DE)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Trace != 0xDEC0DE {
		t.Fatalf("trace trailer not echoed: %x", meta.Trace)
	}
}

// TestV2PipeliningHammer drives many concurrent invocations — small
// echoes, large streamed blobs, bulk compressed texts, oneways — over one
// pooled connection under the race detector.
func TestV2PipeliningHammer(t *testing.T) {
	server := newV2ServerORB(t)
	var d countingDialer
	client := New(WithDialer(d.dial))
	defer client.Close()
	p := v2pair{client: client, server: server, ref: server.Ref("obj")}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// One call first pools the connection the workers then share.
	if err := p.client.Invoke(ctx, p.ref, "echo", rawEcho{}, nil); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				switch (w + i) % 4 {
				case 0:
					var out rawEcho
					in := rawEcho{A: w*1000 + i, B: "hammer"}
					if err := p.client.Invoke(ctx, p.ref, "echo", in, &out); err != nil {
						errs <- err
						return
					}
					if out != in {
						errs <- fmt.Errorf("echo mismatch: %+v vs %+v", in, out)
						return
					}
				case 1:
					var out []byte
					if err := p.client.Invoke(ctx, p.ref, "blob", []byte("200000"), &out); err != nil {
						errs <- err
						return
					}
					if len(out) != 200000 {
						errs <- fmt.Errorf("blob length %d", len(out))
						return
					}
				case 2:
					var out []byte
					if err := p.client.Invoke(WithBulk(ctx), p.ref, "text", []byte("500"), &out); err != nil {
						errs <- err
						return
					}
				case 3:
					if err := p.client.InvokeOneway(ctx, p.ref, "echo", rawEcho{A: i}); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Everything above multiplexed over exactly one connection.
	if n := d.dials.Load(); n != 1 {
		t.Fatalf("%d connections dialed, want 1", n)
	}
}

// TestV2OnewayBatchAndInterning sends a burst of same-typed oneways and
// checks that all but the first reuse the interned target and
// descriptor, one frame per Write.
func TestV2OnewayBatchAndInterning(t *testing.T) {
	p := newV2Pair(t)
	ctx := context.Background()
	for i := 0; i < 16; i++ {
		if err := p.client.InvokeOneway(ctx, p.ref, "echo", rawEcho{A: i, B: "batch"}); err != nil {
			t.Fatal(err)
		}
	}
	// Round trip after the burst proves a live conn.
	var out rawEcho
	if err := p.client.Invoke(ctx, p.ref, "echo", rawEcho{A: -1}, &out); err != nil {
		t.Fatal(err)
	}
	st := p.client.Stats()
	if st.InternHits < 14 {
		t.Fatalf("burst did not hit the descriptor table: hits=%d", st.InternHits)
	}
	if st.Writes != 17 {
		t.Fatalf("%d writes for 17 requests", st.Writes)
	}
}
