package netsim

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"discover/internal/wire"
)

func TestTopologyDefaults(t *testing.T) {
	topo := NewTopology()
	if topo.RTT("a", "b") != 0 {
		t.Error("empty topology should have zero RTT")
	}
	topo.SetDefaultRTT(10 * time.Millisecond)
	if got := topo.RTT("a", "b"); got != 10*time.Millisecond {
		t.Errorf("default RTT = %v", got)
	}
	if got := topo.RTT("a", "a"); got != 0 {
		t.Errorf("intra-site RTT = %v, want 0", got)
	}
	topo.SetRTT("a", "b", 40*time.Millisecond)
	if got := topo.RTT("b", "a"); got != 40*time.Millisecond {
		t.Errorf("SetRTT not symmetric: %v", got)
	}
	topo.SetDefaultBandwidth(1000)
	if got := topo.Bandwidth("a", "c"); got != 1000 {
		t.Errorf("default bandwidth = %v", got)
	}
	if got := topo.Bandwidth("c", "c"); got != 0 {
		t.Errorf("intra-site bandwidth = %v, want unlimited", got)
	}
	topo.SetBandwidth("a", "b", 5000)
	if got := topo.Bandwidth("b", "a"); got != 5000 {
		t.Errorf("SetBandwidth not symmetric: %v", got)
	}
}

// echoServer accepts one connection and echoes everything back.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(c, c)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln
}

func TestUnshapedDialCountsTraffic(t *testing.T) {
	ln := echoServer(t)
	n := New(nil)
	conn, err := n.Dial("east", "west", "tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := []byte("hello over the wan")
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("echo mismatch")
	}
	out := n.LinkStats("east", "west")
	in := n.LinkStats("west", "east")
	if out.Msgs != 1 || out.Bytes != uint64(len(msg)) {
		t.Errorf("outbound stats = %+v", out)
	}
	if in.Bytes != uint64(len(msg)) {
		t.Errorf("inbound stats = %+v", in)
	}
	wan := n.TotalWAN()
	if wan.Bytes != out.Bytes+in.Bytes {
		t.Errorf("TotalWAN = %+v", wan)
	}
	n.ResetStats()
	if s := n.LinkStats("east", "west"); s.Msgs != 0 {
		t.Errorf("ResetStats left %+v", s)
	}
}

func TestShapedRTT(t *testing.T) {
	ln := echoServer(t)
	topo := NewTopology()
	const rtt = 60 * time.Millisecond
	topo.SetRTT("east", "west", rtt)
	n := New(topo)
	conn, err := n.Dial("east", "west", "tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	msg := []byte("ping")
	start := time.Now()
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < rtt {
		t.Errorf("echo completed in %v, want >= %v", elapsed, rtt)
	}
	if elapsed > 5*rtt {
		t.Errorf("echo took %v, far above the configured %v", elapsed, rtt)
	}
}

func TestShapedWriteDoesNotBlockOnLatency(t *testing.T) {
	ln := echoServer(t)
	topo := NewTopology()
	topo.SetRTT("east", "west", 200*time.Millisecond)
	n := New(topo)
	conn, err := n.Dial("east", "west", "tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	start := time.Now()
	for i := 0; i < 50; i++ {
		if _, err := conn.Write([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("50 pipelined writes took %v; latency is serializing the sender", d)
	}
}

func TestShapedBandwidth(t *testing.T) {
	ln := echoServer(t)
	topo := NewTopology()
	topo.SetBandwidth("east", "west", 10_000) // 10 kB/s
	n := New(topo)
	conn, err := n.Dial("east", "west", "tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// 2000 bytes at 10 kB/s each way = 200ms serialization per direction.
	payload := make([]byte, 2000)
	start := time.Now()
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(conn, make([]byte, len(payload))); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 350*time.Millisecond {
		t.Errorf("2kB echo at 10kB/s finished in %v, want >= ~400ms", d)
	}
}

func TestShapedConnWithWireConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan *wire.Message, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		wc := wire.NewConn(c)
		m, err := wc.Recv()
		if err != nil {
			return
		}
		wc.Send(wire.NewResponse(m, "pong"))
		done <- m
	}()

	topo := NewTopology()
	topo.SetRTT("east", "west", 30*time.Millisecond)
	n := New(topo)
	raw, err := n.Dial("east", "west", "tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	wc := wire.NewConn(raw)
	defer wc.Close()

	start := time.Now()
	if err := wc.Send(wire.NewCommand("app", "cl", "ping")); err != nil {
		t.Fatal(err)
	}
	resp, err := wc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Text != "pong" {
		t.Errorf("resp = %v", resp)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("shaped request/response took %v, want >= 30ms", d)
	}
	<-done
	// One framed message each way = one Write each way.
	if s := n.LinkStats("east", "west"); s.Msgs != 1 {
		t.Errorf("outbound msgs = %d, want 1", s.Msgs)
	}
	if s := n.LinkStats("west", "east"); s.Msgs == 0 {
		t.Errorf("inbound msgs = %d, want >= 1", s.Msgs)
	}
}

func TestShapedCloseUnblocksRead(t *testing.T) {
	ln := echoServer(t)
	topo := NewTopology()
	topo.SetRTT("east", "west", 50*time.Millisecond)
	n := New(topo)
	conn, err := n.Dial("east", "west", "tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := conn.Read(make([]byte, 1))
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	conn.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Error("Read returned nil after Close")
		}
	case <-time.After(2 * time.Second):
		t.Error("Read did not unblock after Close")
	}
}

func TestShapedPeerEOF(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		c.Write([]byte("bye"))
		c.Close()
	}()
	topo := NewTopology()
	topo.SetRTT("a", "b", 20*time.Millisecond)
	n := New(topo)
	conn, err := n.Dial("a", "b", "tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	data, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if string(data) != "bye" {
		t.Errorf("read %q", data)
	}
}

func TestDialerHelper(t *testing.T) {
	ln := echoServer(t)
	n := New(nil)
	dial := n.Dialer("a", "b")
	conn, err := dial(nil, "tcp", ln.Addr().String()) //nolint:staticcheck // nil ctx ok via net.Dialer
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
}

func TestPartitionSeversAndBlackholesDials(t *testing.T) {
	ln := echoServer(t)
	n := New(nil)
	conn, err := n.Dial("east", "west", "tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(conn, make([]byte, 2)); err != nil {
		t.Fatal(err)
	}

	n.Partition("east", "west")
	if !n.Partitioned("east", "west") || !n.Partitioned("west", "east") {
		t.Error("partition not recorded symmetrically")
	}
	// The live connection is severed: reads and writes fail.
	if _, err := io.ReadFull(conn, make([]byte, 1)); err == nil {
		t.Error("read on severed connection succeeded")
	}

	// A new dial black-holes until the context expires.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := n.DialContext(ctx, "east", "west", "tcp", ln.Addr().String()); err == nil {
		t.Fatal("dial across partition succeeded")
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Errorf("black-holed dial failed after %v, want ~50ms (context expiry)", d)
	}

	// Other links are unaffected.
	c2, err := n.Dial("east", "hub", "tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("unrelated link affected by partition: %v", err)
	}
	c2.Close()

	// Heal releases a dial that was waiting on the link.
	got := make(chan error, 1)
	go func() {
		c, err := n.Dial("east", "west", "tcp", ln.Addr().String())
		if err == nil {
			c.Close()
		}
		got <- err
	}()
	time.Sleep(20 * time.Millisecond)
	n.Heal("east", "west")
	select {
	case err := <-got:
		if err != nil {
			t.Errorf("dial after heal: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Error("healed dial never completed")
	}
}

func TestKillSiteFailsDialsImmediately(t *testing.T) {
	ln := echoServer(t)
	n := New(nil)
	conn, err := n.Dial("east", "west", "tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	n.KillSite("west")
	if _, err := n.Dial("east", "west", "tcp", ln.Addr().String()); !errors.Is(err, ErrSiteDown) {
		t.Errorf("dial to killed site: %v, want ErrSiteDown", err)
	}
	if _, err := n.Dial("west", "east", "tcp", ln.Addr().String()); !errors.Is(err, ErrSiteDown) {
		t.Errorf("dial from killed site: %v, want ErrSiteDown", err)
	}
	// Existing connections touching the site are severed.
	if _, err := io.ReadFull(conn, make([]byte, 1)); err == nil {
		t.Error("read on connection to killed site succeeded")
	}

	n.Revive("west")
	c2, err := n.Dial("east", "west", "tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial after revive: %v", err)
	}
	c2.Close()
}

func TestResetProbabilityIsDeterministic(t *testing.T) {
	countResets := func(seed int64) (int, int) {
		ln := echoServer(t)
		n := New(nil)
		n.SetFaultSeed(seed)
		n.SetResetProb("east", "west", 0.3)
		resets, writes := 0, 0
		for i := 0; i < 40; i++ {
			conn, err := n.Dial("east", "west", "tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write([]byte("x")); err != nil {
				resets++
			}
			writes++
			conn.Close()
		}
		return resets, writes
	}
	r1, w1 := countResets(7)
	r2, w2 := countResets(7)
	if r1 != r2 || w1 != w2 {
		t.Errorf("same seed produced different fault schedules: %d/%d vs %d/%d", r1, w1, r2, w2)
	}
	if r1 == 0 || r1 == w1 {
		t.Errorf("reset probability 0.3 produced %d resets out of %d writes", r1, w1)
	}
}

func TestLatencySpikeIsOneShot(t *testing.T) {
	ln := echoServer(t)
	n := New(nil)
	conn, err := n.Dial("east", "west", "tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	n.SpikeLatency("east", "west", 80*time.Millisecond)
	start := time.Now()
	if _, err := conn.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 70*time.Millisecond {
		t.Errorf("spiked write took %v, want >= 80ms", d)
	}
	// The spike is consumed: the next write is fast again.
	start = time.Now()
	if _, err := conn.Write([]byte("y")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Errorf("second write took %v; spike was not one-shot", d)
	}
}

func TestHealAllRevertsEverything(t *testing.T) {
	ln := echoServer(t)
	n := New(nil)
	n.Partition("a", "b")
	n.KillSite("c")
	n.SetResetProb("a", "b", 1.0)
	n.SpikeLatency("a", "b", time.Second)
	n.HealAll()

	conn, err := n.Dial("a", "b", "tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial after HealAll: %v", err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("x")); err != nil {
		t.Errorf("write after HealAll: %v", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("write took %v; spike survived HealAll", d)
	}
	c2, err := n.Dial("a", "c", "tcp", ln.Addr().String())
	if err != nil {
		t.Errorf("dial to revived site: %v", err)
	} else {
		c2.Close()
	}
}
