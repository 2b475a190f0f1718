package orb

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestOnewayDeliversInOrder(t *testing.T) {
	server := New()
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	var mu sync.Mutex
	var got []int
	done := make(chan struct{}, 100)
	type noteReq struct{ N int }
	server.Register("sink", MethodMap{
		"note": Handler(func(r noteReq) (struct{}, error) {
			mu.Lock()
			got = append(got, r.N)
			mu.Unlock()
			done <- struct{}{}
			return struct{}{}, nil
		}),
	})

	client := New()
	defer client.Close()
	ctx := context.Background()
	const n = 100
	for i := 0; i < n; i++ {
		if err := client.InvokeOneway(ctx, server.Ref("sink"), "note", noteReq{N: i}); err != nil {
			t.Fatalf("oneway %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d oneway requests executed", i)
		}
	}
	// Oneway requests on one pooled connection execute one at a time in
	// the order they were sent, each exactly once.
	mu.Lock()
	defer mu.Unlock()
	if len(got) != n {
		t.Fatalf("executed %d oneways, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("oneway %d executed in position %d: order %v", v, i, got)
		}
	}
}

func TestOnewayErrorsAreSilent(t *testing.T) {
	server := New()
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	server.Register("sink", MethodMap{
		"boom": Handler(func(struct{}) (struct{}, error) {
			return struct{}{}, fmt.Errorf("kaboom")
		}),
	})
	client := New()
	defer client.Close()
	ctx := context.Background()
	// A servant error on a oneway call is not observable by the caller.
	if err := client.InvokeOneway(ctx, server.Ref("sink"), "boom", struct{}{}); err != nil {
		t.Fatalf("oneway send: %v", err)
	}
	// The connection must remain usable for regular invocations.
	server.Register("echo2", MethodMap{
		"echo": Handler(func(r echoReq) (echoResp, error) { return echoResp{Text: r.Text}, nil }),
	})
	var resp echoResp
	if err := client.Invoke(ctx, server.Ref("echo2"), "echo", echoReq{Text: "ok"}, &resp); err != nil {
		t.Fatalf("invoke after oneway error: %v", err)
	}
}

func TestOnewayToUnreachable(t *testing.T) {
	client := New()
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := client.InvokeOneway(ctx, ObjRef{Addr: "127.0.0.1:1", Key: "x"}, "m", struct{}{})
	if !IsRemote(err, CodeComm) {
		t.Errorf("err = %v, want COMM_FAILURE", err)
	}
}

func TestLargePayloadRoundTrip(t *testing.T) {
	server := New()
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	type blobReq struct{ Data []byte }
	server.Register("blob", MethodMap{
		"sum": Handler(func(r blobReq) (int, error) {
			s := 0
			for _, b := range r.Data {
				s += int(b)
			}
			return s, nil
		}),
	})
	client := New()
	defer client.Close()
	data := make([]byte, 4<<20) // 4 MiB
	for i := range data {
		data[i] = byte(i)
	}
	want := 0
	for _, b := range data {
		want += int(b)
	}
	var got int
	if err := client.Invoke(context.Background(), server.Ref("blob"), "sum", blobReq{Data: data}, &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
}

func TestManyClientsOneServer(t *testing.T) {
	server := newServerORB(t)
	const clients = 12
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := New()
			defer cl.Close()
			for i := 0; i < 20; i++ {
				var resp echoResp
				if err := cl.Invoke(context.Background(), server.Ref("echo"), "echo",
					echoReq{Text: fmt.Sprintf("c%d", c), N: i}, &resp); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestOnewayQueueCompacts pushes while the worker is busy and never lets
// the queue run empty: the backing array must stay bounded by the queue's
// length, not grow with every oneway ever run.
func TestOnewayQueueCompacts(t *testing.T) {
	var q onewayQueue
	q.running = true // a busy worker: push only appends
	q.push(nil, &request{method: "0"}, nil)
	for i := 1; i <= 10000; i++ {
		q.push(nil, &request{method: fmt.Sprint(i)}, nil)
		rq, ok := q.next()
		if !ok || rq.method != fmt.Sprint(i-1) {
			t.Fatalf("pop %d = %v, %v", i-1, rq, ok)
		}
	}
	if c := cap(q.queue); c > 16 {
		t.Fatalf("queue of 1 request has cap %d after 10000 oneways", c)
	}
	if rq, ok := q.next(); !ok || rq.method != "10000" {
		t.Fatalf("last pop = %v, %v", rq, ok)
	}
	if _, ok := q.next(); ok || q.running {
		t.Fatal("empty queue did not stop the worker")
	}
}
