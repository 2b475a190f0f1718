package experiments

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math/rand"
	"net"
	"time"

	"discover/internal/clock"
	"discover/internal/netsim"
	"discover/internal/orb"
	"discover/internal/wire"
)

// RunA1 quantifies §6.2's observation that CORBA "reduces performance
// when compared to a lower level socket based system": the same echo
// workload through the mini-ORB and through the custom framed-TCP
// protocol.
func RunA1(iters int) (Result, error) {
	if iters <= 0 {
		iters = 5000
	}
	res := Result{ID: "A1", Title: "ORB invocation vs raw socket protocol (§6.2)"}
	msg := wire.NewCommand("app#1", "client-1", "get_param", wire.Param{Key: "name", Value: "source_freq"})

	// ORB path.
	o := orb.New()
	if err := o.Listen("127.0.0.1:0"); err != nil {
		return res, err
	}
	defer o.Close()
	type echoArgs struct{ M *wire.Message }
	o.Register("echo", orb.MethodMap{
		"echo": orb.Handler(func(a echoArgs) (echoArgs, error) { return a, nil }),
	})
	client := orb.New()
	defer client.Close()
	ctx := context.Background()
	ref := o.Ref("echo")
	var out echoArgs
	if err := client.Invoke(ctx, ref, "echo", echoArgs{M: msg}, &out); err != nil { // warm the pool
		return res, err
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := client.Invoke(ctx, ref, "echo", echoArgs{M: msg}, &out); err != nil {
			return res, err
		}
	}
	orbPer := time.Since(start) / time.Duration(iters)

	// Raw socket path: framed binary echo over one TCP connection.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		wc := wire.NewConn(conn)
		for {
			m, err := wc.Recv()
			if err != nil {
				return
			}
			if err := wc.Send(m); err != nil {
				return
			}
		}
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return res, err
	}
	wc := wire.NewConn(raw)
	defer wc.Close()
	if err := wc.Send(msg); err != nil { // warm
		return res, err
	}
	if _, err := wc.Recv(); err != nil {
		return res, err
	}
	start = time.Now()
	for i := 0; i < iters; i++ {
		if err := wc.Send(msg); err != nil {
			return res, err
		}
		if _, err := wc.Recv(); err != nil {
			return res, err
		}
	}
	sockPer := time.Since(start) / time.Duration(iters)

	res.Rows = append(res.Rows, Row{
		Name:  fmt.Sprintf("echo round trip x%d", iters),
		Paper: "CORBA gives up transport control and reduces performance vs sockets",
		Measured: fmt.Sprintf("ORB %s/op vs raw socket %s/op (%.2fx overhead)",
			orbPer.Round(time.Microsecond), sockPer.Round(time.Microsecond),
			float64(orbPer)/float64(sockPer)),
		Pass: orbPer > sockPer,
	})
	return res, nil
}

// RunA2 compares the two codecs: the gob envelope (the Java-serialization
// analogue, gobEncode/gobDecode) against the compact custom binary
// encoding the application and client channels speak.
func RunA2(iters int) (Result, error) {
	if iters <= 0 {
		iters = 20000
	}
	res := Result{ID: "A2", Title: "Self-describing (gob) vs custom binary codec"}
	msg := wire.NewUpdate("rutgers#12", 42,
		wire.Param{Key: "m.step", Value: "1200"},
		wire.Param{Key: "m.energy", Value: "3.14159"},
		wire.Param{Key: "p.source_freq", Value: "0.05"},
	)

	runCodec := func(encode func(*wire.Message) ([]byte, error), decode func([]byte) (*wire.Message, error)) (time.Duration, int, error) {
		enc, err := encode(msg)
		if err != nil {
			return 0, 0, err
		}
		size := len(enc)
		start := time.Now()
		for i := 0; i < iters; i++ {
			buf, err := encode(msg)
			if err != nil {
				return 0, 0, err
			}
			if _, err := decode(buf); err != nil {
				return 0, 0, err
			}
		}
		return time.Since(start) / time.Duration(iters), size, nil
	}

	binPer, binSize, err := runCodec(binaryEncode, wire.BinaryCodec{}.Decode)
	if err != nil {
		return res, err
	}
	gobPer, gobSize, err := runCodec(gobEncode, gobDecode)
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows, Row{
		Name:  "typical update message encode+decode",
		Paper: "commodity serialization trades performance for generality",
		Measured: fmt.Sprintf("binary %dB %s/op vs gob %dB %s/op (%.1fx size, %.1fx time)",
			binSize, binPer.Round(time.Nanosecond), gobSize, gobPer.Round(time.Nanosecond),
			float64(gobSize)/float64(binSize), float64(gobPer)/float64(binPer)),
		Pass: binSize < gobSize && binPer < gobPer,
	})
	return res, nil
}

func binaryEncode(m *wire.Message) ([]byte, error) { return wire.BinaryCodec{}.Encode(nil, m) }

// gobEncode writes m as an independent gob stream. Like Java
// serialization it is self-describing: every message carries its type
// information, which is the overhead the paper attributes to commodity
// serialization.
func gobEncode(m *wire.Message) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// gobDecode reads one message written by gobEncode.
func gobDecode(p []byte) (*wire.Message, error) {
	m := &wire.Message{}
	if err := gob.NewDecoder(bytes.NewReader(p)).Decode(m); err != nil {
		return nil, err
	}
	return m, nil
}

// RunA3 compares the two cross-server propagation designs: the
// substrate's control-channel push against the prototype's CorbaProxy
// polling (rebuilt for this experiment alone, see LogPoller), on delivery
// latency and on idle WAN traffic. Each update waits a seeded random gap,
// uniform in [0, pollInterval), so it lands at a random phase of the
// poller's ticker and the poll arm measures the average wait, not one
// locked phase; both arms draw the same gaps.
func RunA3(updates int, pollInterval, rtt time.Duration) (Result, error) {
	if updates <= 0 {
		updates = 10
	}
	if pollInterval <= 0 {
		pollInterval = 100 * time.Millisecond
	}
	if rtt <= 0 {
		rtt = 20 * time.Millisecond
	}
	res := Result{ID: "A3", Title: "Update propagation: push vs poll (§5.2.3)"}

	run := func(poll bool) (lat time.Duration, idleMsgs uint64, err error) {
		// A clock nobody advances: no heartbeat, re-discovery or
		// re-subscribe traffic. The idle row counts propagation
		// traffic, and the randomised gaps stretch the run past the
		// first background tick.
		fed, err := NewFederation(func(t *netsim.Topology) { t.SetRTT("east", "west", rtt) },
			clock.NewManual(), 0, Place("host", "east"), Place("edge", "west"))
		if err != nil {
			return 0, 0, err
		}
		defer fed.Close()
		host, edge := fed.Domains[0], fed.Domains[1]
		as, err := AttachApp(host, "prop-app", 1)
		if err != nil {
			return 0, 0, err
		}
		defer as.Close()
		if err := edge.Substrate.DiscoverPeers(); err != nil {
			return 0, 0, err
		}

		// arrived waits until update seq reached the edge: for push, in
		// a connected edge client's buffer (the host relays it there);
		// for poll, in what the edge's poller pulled from the host's log.
		var arrived func(seq uint64) bool
		if poll {
			p := StartLogPoller(host, edge, as.AppID(), pollInterval)
			defer p.Stop()
			arrived = func(seq uint64) bool {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				return p.WaitUpdate(ctx, seq) == nil
			}
		} else {
			sess, err := LoginLocal(edge, "alice")
			if err != nil {
				return 0, 0, err
			}
			if _, err := edge.Server.ConnectApp(context.Background(), sess, as.AppID()); err != nil {
				return 0, 0, err
			}
			arrived = func(seq uint64) bool {
				deadline := time.Now().Add(30 * time.Second)
				for time.Now().Before(deadline) {
					ents, _ := sess.Buffer.DrainEntriesWait(0, 5*time.Millisecond, nil)
					for _, e := range ents {
						m := e.Msg
						if m.Kind == wire.KindUpdate && m.Seq >= seq {
							return true
						}
					}
				}
				return false
			}
		}

		// Latency: one update generated at the host; time until it
		// arrives at the edge.
		rng := rand.New(rand.NewSource(1))
		var total time.Duration
		for seq := uint64(1); seq <= uint64(updates); seq++ {
			time.Sleep(time.Duration(rng.Int63n(int64(pollInterval))))
			start := time.Now()
			if _, err := as.RunPhase(); err != nil {
				return 0, 0, err
			}
			if !arrived(seq) {
				return 0, 0, fmt.Errorf("experiments: update %d never propagated", seq)
			}
			total += time.Since(start)
		}
		lat = total / time.Duration(updates)

		// Idle traffic: no updates for 10 poll intervals.
		fed.Net.ResetStats()
		time.Sleep(10 * pollInterval)
		idleMsgs = fed.Net.TotalWAN().Msgs
		return lat, idleMsgs, nil
	}

	pushLat, pushIdle, err := run(false)
	if err != nil {
		return res, err
	}
	pollLat, pollIdle, err := run(true)
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows, Row{
		Name:  fmt.Sprintf("delivery latency (RTT %s, poll every %s)", rtt, pollInterval),
		Paper: "the prototype polls between CorbaProxies; a push notification channel is the alternative",
		Measured: fmt.Sprintf("push %s vs poll %s per update",
			pushLat.Round(time.Millisecond), pollLat.Round(time.Millisecond)),
		Pass: pushLat < pollLat,
	})
	res.Rows = append(res.Rows, Row{
		Name:     fmt.Sprintf("idle WAN traffic over %s", (10 * pollInterval).Round(time.Millisecond)),
		Paper:    "polling pays a standing cost even when nothing changes",
		Measured: fmt.Sprintf("push %d msgs vs poll %d msgs", pushIdle, pollIdle),
		Pass:     pushIdle < pollIdle,
	})
	return res, nil
}
