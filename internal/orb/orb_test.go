package orb

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"discover/internal/wire"
)

func TestProtoRejectsGarbage(t *testing.T) {
	// def prefixes rest with a valid definition of target "k"/"m" as id 1.
	def := func(rest ...byte) []byte {
		return append([]byte{targetDef, 1, 1, 'k', 1, 'm'}, rest...)
	}
	requests := [][]byte{
		nil,
		{0x07},                         // unknown target tag
		{targetRef, 1},                 // reference to an undefined target
		{targetDef, 2, 1, 'k', 1, 'm'}, // definition out of sequence
		def(0x09),                      // unknown blob tag
		def(blobRaw, 5, 'x'),           // truncated blob
		def(blobRef, 1, 0),             // reference to an undefined descriptor
	}
	for i, p := range requests {
		if _, err := decodeRequestV2(p, 1, false, newTargetDefs(), wire.NewInternDefs()); err == nil {
			t.Errorf("request case %d: decodeRequestV2 accepted garbage", i)
		}
	}
	for i, p := range [][]byte{nil, {replyOK, 0x09}, {replyOK, blobRaw, 5, 'x'}} {
		if _, err := decodeReplyV2(p, 1, wire.NewInternDefs()); err == nil {
			t.Errorf("reply case %d: decodeReplyV2 accepted garbage", i)
		}
	}
	if _, err := decodeEndV2(nil, 1, nil); err == nil {
		t.Error("decodeEndV2 accepted an empty payload")
	}
}

// TestServerRejectsForeignPreface opens raw connections that carry a
// valid REQUEST frame behind a wrong preface, or behind none at all: the
// server must close each connection without dispatching the request. The
// same frame behind the DWP2 preface is served, so the frame itself is
// not what the server refused.
func TestServerRejectsForeignPreface(t *testing.T) {
	server := New()
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	var dispatched atomic.Int32
	server.Register("sink", MethodMap{
		"note": func(args []byte) ([]byte, error) {
			dispatched.Add(1)
			return args, nil
		},
	})
	args, err := Marshal(echoReq{Text: "hi"})
	if err != nil {
		t.Fatal(err)
	}
	payload := appendRequestV2(nil, newTargetTable(), wire.NewInternTable(), &orbStats{},
		&request{id: 1, key: "sink", method: "note", args: args})
	frame := append(wire.AppendV2Header(nil, wire.V2FrameRequest, 0, 1, len(payload)), payload...)

	// send writes preface+frame on a fresh connection and returns what the
	// server sends back before closing it.
	send := func(preface string) []byte {
		t.Helper()
		conn, err := net.Dial("tcp", server.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(append([]byte(preface), frame...)); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		var got []byte
		buf := make([]byte, 512)
		for {
			n, err := conn.Read(buf)
			got = append(got, buf[:n]...)
			if err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					t.Fatalf("preface %q: server neither replied nor closed", preface)
				}
				return got
			}
			if preface == wireMagic && len(got) > 0 {
				return got // the reply is on its way: the frame was accepted
			}
		}
	}
	for _, preface := range []string{"", "DORB", "DWP1", "\x00\x00\x00\x10"} {
		if got := send(preface); len(got) != 0 {
			t.Errorf("preface %q: server answered %d bytes", preface, len(got))
		}
	}
	if n := dispatched.Load(); n != 0 {
		t.Fatalf("%d requests dispatched behind a foreign preface", n)
	}
	if got := send(wireMagic); len(got) == 0 {
		t.Fatal("request behind the DWP2 preface got no reply")
	}
	if n := dispatched.Load(); n != 1 {
		t.Fatalf("dispatched %d requests behind the DWP2 preface, want 1", n)
	}
}

func TestObjRef(t *testing.T) {
	var zero ObjRef
	if !zero.IsZero() {
		t.Error("zero ref not zero")
	}
	r := ObjRef{Addr: "127.0.0.1:5", Key: "obj"}
	if r.IsZero() {
		t.Error("ref reported zero")
	}
	if r.String() != "orb://127.0.0.1:5/obj" {
		t.Errorf("String() = %q", r.String())
	}
}

// echo servant types
type echoReq struct {
	Text string
	N    int
}
type echoResp struct {
	Text string
	N    int
}

func newServerORB(t *testing.T) *ORB {
	t.Helper()
	o := New()
	if err := o.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { o.Close() })
	o.Register("echo", MethodMap{
		"echo": Handler(func(r echoReq) (echoResp, error) {
			return echoResp{Text: r.Text, N: r.N + 1}, nil
		}),
		"fail": Handler(func(r echoReq) (echoResp, error) {
			return echoResp{}, fmt.Errorf("deliberate failure on %q", r.Text)
		}),
		"failRemote": Handler(func(r echoReq) (echoResp, error) {
			return echoResp{}, &RemoteError{Code: "CUSTOM", Msg: "typed"}
		}),
		"slow": Handler(func(r echoReq) (echoResp, error) {
			time.Sleep(200 * time.Millisecond)
			return echoResp{Text: "late"}, nil
		}),
	})
	return o
}

func TestInvokeEndToEnd(t *testing.T) {
	server := newServerORB(t)
	client := New()
	defer client.Close()

	var resp echoResp
	err := client.Invoke(context.Background(), server.Ref("echo"), "echo", echoReq{Text: "hi", N: 4}, &resp)
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if resp.Text != "hi" || resp.N != 5 {
		t.Errorf("resp = %+v", resp)
	}

	// nil out: result discarded.
	if err := client.Invoke(context.Background(), server.Ref("echo"), "echo", echoReq{}, nil); err != nil {
		t.Errorf("Invoke with nil out: %v", err)
	}
}

func TestInvokeErrors(t *testing.T) {
	server := newServerORB(t)
	client := New()
	defer client.Close()
	ctx := context.Background()

	var resp echoResp
	err := client.Invoke(ctx, server.Ref("echo"), "fail", echoReq{Text: "x"}, &resp)
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeApplication {
		t.Errorf("untyped servant error: %v", err)
	}

	err = client.Invoke(ctx, server.Ref("echo"), "failRemote", echoReq{}, &resp)
	if !IsRemote(err, "CUSTOM") {
		t.Errorf("typed servant error: %v", err)
	}

	err = client.Invoke(ctx, server.Ref("nosuch"), "echo", echoReq{}, &resp)
	if !IsRemote(err, CodeNoServant) {
		t.Errorf("missing servant: %v", err)
	}

	err = client.Invoke(ctx, server.Ref("echo"), "nosuchmethod", echoReq{}, &resp)
	if !IsRemote(err, CodeNoMethod) {
		t.Errorf("missing method: %v", err)
	}

	err = client.Invoke(ctx, ObjRef{}, "echo", echoReq{}, &resp)
	if err == nil {
		t.Error("zero ref should fail")
	}

	err = client.Invoke(ctx, ObjRef{Addr: "127.0.0.1:1", Key: "echo"}, "echo", echoReq{}, &resp)
	if !IsRemote(err, CodeComm) {
		t.Errorf("unreachable: %v", err)
	}
}

func TestInvokeConcurrentMultiplexing(t *testing.T) {
	server := newServerORB(t)
	client := New()
	defer client.Close()
	ref := server.Ref("echo")

	const workers, calls = 16, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers*calls)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				var resp echoResp
				req := echoReq{Text: fmt.Sprintf("w%d-%d", w, i), N: i}
				if err := client.Invoke(context.Background(), ref, "echo", req, &resp); err != nil {
					errs <- err
					return
				}
				if resp.Text != req.Text || resp.N != i+1 {
					errs <- fmt.Errorf("mismatched reply %+v for %+v", resp, req)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestInvokeContextCancel(t *testing.T) {
	server := newServerORB(t)
	client := New()
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	var resp echoResp
	start := time.Now()
	err := client.Invoke(ctx, server.Ref("echo"), "slow", echoReq{}, &resp)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 150*time.Millisecond {
		t.Error("cancel did not take effect promptly")
	}
}

func TestInvokeRetriesAfterConnDrop(t *testing.T) {
	server := newServerORB(t)
	client := New()
	defer client.Close()
	ref := server.Ref("echo")
	ctx := context.Background()

	var resp echoResp
	if err := client.Invoke(ctx, ref, "echo", echoReq{Text: "a"}, &resp); err != nil {
		t.Fatal(err)
	}
	// Simulate a dropped connection (e.g. peer restarted its NAT binding):
	// mark the pooled conn dead; the next Invoke must redial transparently.
	client.DropConn(ref.Addr)
	if err := client.Invoke(ctx, ref, "echo", echoReq{Text: "b"}, &resp); err != nil {
		t.Fatalf("Invoke after drop: %v", err)
	}
	if resp.Text != "b" {
		t.Errorf("resp = %+v", resp)
	}
}

func TestORBCloseStopsServing(t *testing.T) {
	server := newServerORB(t)
	addr := server.Addr()
	client := New()
	defer client.Close()
	ctx := context.Background()
	var resp echoResp
	if err := client.Invoke(ctx, ObjRef{Addr: addr, Key: "echo"}, "echo", echoReq{}, &resp); err != nil {
		t.Fatal(err)
	}
	server.Close()
	cctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	client.DropConn(addr)
	err := client.Invoke(cctx, ObjRef{Addr: addr, Key: "echo"}, "echo", echoReq{}, &resp)
	if err == nil {
		t.Error("invoke after Close succeeded")
	}
}

func TestUnregister(t *testing.T) {
	server := newServerORB(t)
	client := New()
	defer client.Close()
	server.Unregister("echo")
	var resp echoResp
	err := client.Invoke(context.Background(), server.Ref("echo"), "echo", echoReq{}, &resp)
	if !IsRemote(err, CodeNoServant) {
		t.Errorf("after Unregister: %v", err)
	}
}

// ---------------------------------------------------------------------------
// Trader service
// ---------------------------------------------------------------------------

func TestTraderLocal(t *testing.T) {
	now := time.Now()
	clock := &now
	tr := NewTrader(WithOfferTTL(time.Minute), WithTraderClock(func() time.Time { return *clock }))

	id1 := tr.Export(DiscoverServiceType, ObjRef{Addr: "a:1", Key: "srv"},
		map[string]string{"name": "rutgers", "apps": "12"}, 0)
	id2 := tr.Export(DiscoverServiceType, ObjRef{Addr: "b:1", Key: "srv"},
		map[string]string{"name": "caltech", "apps": "3"}, 0)
	tr.Export("ARCHIVE", ObjRef{Addr: "c:1", Key: "arch"}, nil, 0)

	offers, err := tr.Query(DiscoverServiceType, "")
	if err != nil || len(offers) != 2 {
		t.Fatalf("Query all = %v, %v", offers, err)
	}
	offers, err = tr.Query(DiscoverServiceType, "apps > 10")
	if err != nil || len(offers) != 1 || offers[0].Props["name"] != "rutgers" {
		t.Errorf("Query constrained = %v, %v", offers, err)
	}
	if _, err := tr.Query(DiscoverServiceType, "((("); !IsRemote(err, CodeBadConstraint) {
		t.Errorf("bad constraint: %v", err)
	}
	if offers, err := tr.Query("ARCHIVE", ""); err != nil || len(offers) != 1 || offers[0].Ref.Key != "arch" {
		t.Errorf("Query ARCHIVE = %v, %v", offers, err)
	}

	// Mutating a returned offer's props must not corrupt the trader.
	offers, _ = tr.Query(DiscoverServiceType, "name == 'rutgers'")
	offers[0].Props["name"] = "mallory"
	offers, _ = tr.Query(DiscoverServiceType, "name == 'rutgers'")
	if len(offers) != 1 {
		t.Error("trader state corrupted by caller mutation")
	}

	if err := tr.Withdraw(id2); err != nil {
		t.Fatal(err)
	}
	if err := tr.Withdraw(id2); !IsRemote(err, CodeUnknownOffer) {
		t.Errorf("double withdraw: %v", err)
	}

	// Lease expiry: advance past TTL; unrefreshed offers disappear.
	if err := tr.Refresh(id1, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	now = now.Add(5 * time.Minute)
	offers, _ = tr.Query(DiscoverServiceType, "")
	if len(offers) != 1 || offers[0].ID != id1 {
		t.Errorf("after expiry: %v", offers)
	}
	now = now.Add(10 * time.Minute)
	offers, _ = tr.Query(DiscoverServiceType, "")
	if len(offers) != 0 {
		t.Errorf("refreshed offer should also expire eventually: %v", offers)
	}
	if err := tr.Refresh(id1, 0); !IsRemote(err, CodeUnknownOffer) {
		t.Errorf("refresh expired: %v", err)
	}
}

func TestTraderRemote(t *testing.T) {
	server := New()
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	server.Register(TraderKey, NewTrader().Servant())

	client := New()
	defer client.Close()
	tc := NewTraderClient(client, server.Ref(TraderKey))
	ctx := context.Background()

	id, err := tc.Export(ctx, DiscoverServiceType, ObjRef{Addr: "x:1", Key: "srv"},
		map[string]string{"name": "utexas", "domain": "csm"}, time.Minute)
	if err != nil || id == "" {
		t.Fatalf("Export = %q, %v", id, err)
	}
	offers, err := tc.Query(ctx, DiscoverServiceType, "domain == 'csm'")
	if err != nil || len(offers) != 1 || offers[0].Ref.Addr != "x:1" {
		t.Fatalf("Query = %v, %v", offers, err)
	}
	if err := tc.Refresh(ctx, id, time.Minute); err != nil {
		t.Errorf("Refresh: %v", err)
	}
	if err := tc.Withdraw(ctx, id); err != nil {
		t.Errorf("Withdraw: %v", err)
	}
	offers, err = tc.Query(ctx, DiscoverServiceType, "")
	if err != nil || len(offers) != 0 {
		t.Errorf("Query after withdraw = %v, %v", offers, err)
	}
}

func TestDialTimeoutBoundsBlackholedDial(t *testing.T) {
	// A dialer that black-holes until its context expires, like a
	// partitioned WAN link.
	blackhole := func(ctx context.Context, network, addr string) (conn net.Conn, err error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	o := New(WithDialer(blackhole), WithDialTimeout(50*time.Millisecond))
	defer o.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	err := o.Invoke(ctx, ObjRef{Addr: "10.255.255.1:9", Key: "k"}, "m", struct{}{}, nil)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("invoke through black-holed dial succeeded")
	}
	if !IsRemote(err, CodeComm) {
		t.Errorf("err = %v, want COMM_FAILURE", err)
	}
	if !IsPeerFailure(err) {
		t.Errorf("dial timeout not classified as peer failure: %v", err)
	}
	// The dial bound, not the 10s invocation budget, limits the wait
	// (one retry after CodeComm doubles it).
	if elapsed > time.Second {
		t.Errorf("black-holed invoke took %v; dial timeout not applied", elapsed)
	}
}

func TestIsPeerFailureClassification(t *testing.T) {
	// A caller that cancels while the dial is still pending gets an error
	// wrapping its own ctx.Err(), not COMM_FAILURE.
	stalled := func(ctx context.Context, network, addr string) (net.Conn, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	o := New(WithDialer(stalled))
	defer o.Close()
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	dialCancelled := o.Invoke(ctx, ObjRef{Addr: "10.255.255.1:9", Key: "k"}, "m", struct{}{}, nil)
	if !errors.Is(dialCancelled, context.Canceled) {
		t.Fatalf("invoke cancelled mid-dial: %v, want an error wrapping context.Canceled", dialCancelled)
	}

	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{&RemoteError{Code: CodeComm, Msg: "refused"}, true},
		{fmt.Errorf("wrapped: %w", &RemoteError{Code: CodeComm, Msg: "x"}), true},
		{context.DeadlineExceeded, true},
		{context.Canceled, false}, // caller's choice, not the peer's fault
		{dialCancelled, false},    // the same, while the dial was pending
		{&RemoteError{Code: CodeNoMethod, Msg: "m"}, false},
		{&RemoteError{Code: CodeApplication, Msg: "boom"}, false},
		{&RemoteError{Code: CodeNoServant, Msg: "k"}, false},
		{errors.New("misc"), false},
	}
	for i, c := range cases {
		if got := IsPeerFailure(c.err); got != c.want {
			t.Errorf("case %d (%v): IsPeerFailure = %v, want %v", i, c.err, got, c.want)
		}
	}
}
