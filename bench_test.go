package discover

// One testing.B benchmark per experiment in EXPERIMENTS.md. These measure
// the steady-state cost of each code path with Go's benchmark machinery;
// cmd/benchharness runs the full scenario versions (with simulated WAN
// latency) and prints paper-vs-measured rows.

import (
	"context"
	"fmt"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"discover/internal/app"
	"discover/internal/appproto"
	"discover/internal/clock"
	"discover/internal/collab"
	"discover/internal/experiments"
	"discover/internal/lockmgr"
	"discover/internal/netsim"
	"discover/internal/orb"
	"discover/internal/portal"
	"discover/internal/server"
	"discover/internal/session"
	"discover/internal/wire"
)

func quietLog(string, ...any) {}

func benchServer(b *testing.B) *server.Server {
	b.Helper()
	srv, err := server.New(server.Config{Name: "bench", Logf: quietLog})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.ListenDaemon("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	srv.Auth().SetUserSecret("alice", "pw")
	return srv
}

func benchApp(b *testing.B, srv *server.Server, name string, opts ...appproto.DialOption) *appproto.Session {
	b.Helper()
	rt, err := app.NewRuntime(app.Config{
		Name: name, Kernel: app.NewSeismic1D(64), ComputeSteps: 1,
		Users: []app.UserGrant{{User: "alice", Privilege: "steer"}},
	})
	if err != nil {
		b.Fatal(err)
	}
	before := len(srv.LocalAppIDs())
	s, err := appproto.Dial(context.Background(), srv.Daemon().Addr(), rt, opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.LocalAppIDs()) <= before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return s
}

// BenchmarkE1AppsPerServer drives one full phase (compute + interaction +
// update) on each of 40 simultaneous applications per iteration — the
// §6.1 "more than 40 simultaneous applications" configuration.
func BenchmarkE1AppsPerServer(b *testing.B) {
	srv := benchServer(b)
	const nApps = 40
	apps := make([]*appproto.Session, nApps)
	for i := range apps {
		apps[i] = benchApp(b, srv, fmt.Sprintf("app-%d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range apps {
			if _, err := a.RunPhase(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(nApps), "apps")
}

// BenchmarkE2ClientsPerServer measures one client command/response round
// trip through the HTTP portal path with 20 simultaneous clients
// attached — the §6.1 client-capacity configuration.
func BenchmarkE2ClientsPerServer(b *testing.B) {
	srv := benchServer(b)
	as := benchApp(b, srv, "shared")
	ts := httptest.NewServer(srv.HTTPHandler())
	b.Cleanup(ts.Close)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); as.Run(ctx) }()
	b.Cleanup(func() { cancel(); <-done })

	const nClients = 20
	clients := make([]*portal.Client, nClients)
	for i := range clients {
		cl := portal.New(ts.URL)
		if err := cl.Login(ctx, "alice", "pw"); err != nil {
			b.Fatal(err)
		}
		if _, err := cl.ConnectApp(ctx, as.AppID()); err != nil {
			b.Fatal(err)
		}
		cl.StartPump(nil)
		b.Cleanup(cl.StopPump)
		clients[i] = cl
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl := clients[i%nClients]
		wctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if _, err := cl.Do(wctx, "status", nil); err != nil {
			cancel()
			b.Fatal(err)
		}
		cancel()
	}
}

// BenchmarkE3ProtocolTradeoff compares the two halves of §6.1's
// observation: the app-side custom TCP protocol vs the client-side HTTP
// servlet path, on one served status query each.
func BenchmarkE3ProtocolTradeoff(b *testing.B) {
	b.Run("tcp-app-path", func(b *testing.B) {
		srv := benchServer(b)
		as := benchApp(b, srv, "tcp")
		sess, err := srv.Login(context.Background(), "alice", "pw")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := srv.ConnectApp(context.Background(), sess, as.AppID()); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := srv.SubmitCommand(context.Background(), sess, "status", nil); err != nil {
				b.Fatal(err)
			}
			if _, err := as.RunPhase(); err != nil {
				b.Fatal(err)
			}
			sess.Buffer.DrainEntries(0)
		}
	})
	b.Run("http-client-path", func(b *testing.B) {
		srv := benchServer(b)
		as := benchApp(b, srv, "http")
		ts := httptest.NewServer(srv.HTTPHandler())
		b.Cleanup(ts.Close)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { defer close(done); as.Run(ctx) }()
		b.Cleanup(func() { cancel(); <-done })
		cl := portal.New(ts.URL)
		if err := cl.Login(ctx, "alice", "pw"); err != nil {
			b.Fatal(err)
		}
		if _, err := cl.ConnectApp(ctx, as.AppID()); err != nil {
			b.Fatal(err)
		}
		cl.StartPump(nil)
		b.Cleanup(cl.StopPump)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			wctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if _, err := cl.Do(wctx, "status", nil); err != nil {
				cancel()
				b.Fatal(err)
			}
			cancel()
		}
	})
}

// twoDomains builds a two-domain federation with no WAN latency (the
// benches measure protocol cost; the harness adds latency).
func twoDomains(b *testing.B) *experiments.Federation {
	b.Helper()
	fed, err := experiments.NewFederation(nil, nil, 0,
		experiments.Place("host", "east"), experiments.Place("edge", "west"))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(fed.Close)
	return fed
}

// BenchmarkE4CollabTraffic measures one cross-server update broadcast:
// host-side fan-out to local members plus one relay push per peer server
// (§5.2.3).
func BenchmarkE4CollabTraffic(b *testing.B) {
	fed := twoDomains(b)
	host, edge := fed.Domains[0], fed.Domains[1]
	as, err := experiments.AttachApp(host, "collab", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { as.Close() })
	if err := edge.Substrate.DiscoverPeers(); err != nil {
		b.Fatal(err)
	}
	sess, err := experiments.LoginLocal(edge, "alice")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := edge.Server.ConnectApp(context.Background(), sess, as.AppID()); err != nil {
		b.Fatal(err)
	}
	fed.Net.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := as.RunPhase(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	wan := fed.Net.TotalWAN()
	b.ReportMetric(float64(wan.Bytes)/float64(b.N), "wanB/op")
	sess.Buffer.DrainEntries(0)
}

// BenchmarkE5RemoteVsLocal measures a get_param command/response cycle
// for a local client and for a client at a peer server (§7).
func BenchmarkE5RemoteVsLocal(b *testing.B) {
	run := func(b *testing.B, remote bool) {
		fed := twoDomains(b)
		host, edge := fed.Domains[0], fed.Domains[1]
		as, err := experiments.AttachApp(host, "lat", 1, appproto.WithUpdateEvery(1000000))
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { as.Close() })
		if err := edge.Substrate.DiscoverPeers(); err != nil {
			b.Fatal(err)
		}
		d := host
		if remote {
			d = edge
		}
		sess, err := experiments.LoginLocal(d, "alice")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Server.ConnectApp(context.Background(), sess, as.AppID()); err != nil {
			b.Fatal(err)
		}
		params := []wire.Param{{Key: "name", Value: "source_freq"}}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cmd, err := d.Server.SubmitCommand(context.Background(), sess, "get_param", params)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := as.RunPhase(); err != nil {
				b.Fatal(err)
			}
			got := false
			for !got {
				ents, _ := sess.Buffer.DrainEntriesWait(0, 100*time.Millisecond, nil)
				for _, e := range ents {
					m := e.Msg
					if m.Seq == cmd.Seq {
						got = true
					}
				}
			}
		}
	}
	b.Run("local", func(b *testing.B) { run(b, false) })
	b.Run("remote", func(b *testing.B) { run(b, true) })
}

// BenchmarkE6DiscoveryAuth measures warm trader discovery and remote
// level-two authorization (§7).
func BenchmarkE6DiscoveryAuth(b *testing.B) {
	fed := twoDomains(b)
	host, edge := fed.Domains[0], fed.Domains[1]
	as, err := experiments.AttachApp(host, "auth", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { as.Close() })
	if err := edge.Substrate.DiscoverPeers(); err != nil {
		b.Fatal(err)
	}
	edge.Server.Auth().SetUserSecret("alice", "pw")
	b.Run("trader-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := edge.Substrate.DiscoverPeers(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("remote-privilege", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := edge.Substrate.RemotePrivilege(context.Background(), "alice", as.AppID()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("remote-app-list", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if apps := edge.Substrate.RemoteApps(context.Background(), "alice"); len(apps) == 0 {
				b.Fatal("no remote apps")
			}
		}
	})
}

// BenchmarkE7SessionScalability measures host-side delivery work for one
// update: 24 local members (centralized) vs 8 local members + 2 relays
// (the load the spread configuration leaves at the host, §5.2.3).
func BenchmarkE7SessionScalability(b *testing.B) {
	sink := func(*wire.Message) {}
	bench := func(b *testing.B, locals, relays int) {
		hub := collab.NewHub()
		g := hub.Group("app")
		for i := 0; i < locals; i++ {
			g.Join(fmt.Sprintf("c%d", i), sink)
		}
		for i := 0; i < relays; i++ {
			g.JoinRelay(fmt.Sprintf("peer%d", i), sink)
		}
		u := wire.NewUpdate("app", 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.BroadcastUpdate(u, "")
		}
	}
	b.Run("centralized-24-members", func(b *testing.B) { bench(b, 24, 0) })
	b.Run("spread-8-members-2-relays", func(b *testing.B) { bench(b, 8, 2) })
}

// BenchmarkE8SlowClientBuffers measures the FIFO primitives behind the
// poll-and-pull model (§6.2).
func BenchmarkE8SlowClientBuffers(b *testing.B) {
	m := wire.NewUpdate("app", 1)
	b.Run("push-drain", func(b *testing.B) {
		f := session.NewQueue(256, 0)
		for i := 0; i < b.N; i++ {
			f.Push(m)
			if i%64 == 0 {
				f.DrainEntries(0)
			}
		}
	})
	b.Run("push-overflowing", func(b *testing.B) {
		f := session.NewQueue(64, 0)
		for i := 0; i < b.N; i++ {
			f.Push(m) // beyond capacity: constant-time drop-oldest
		}
	})
}

// BenchmarkE9DistributedLocking measures local acquire/release against a
// relayed acquire/release through the substrate (§5.2.4).
func BenchmarkE9DistributedLocking(b *testing.B) {
	b.Run("local", func(b *testing.B) {
		m := lockmgr.NewManager()
		for i := 0; i < b.N; i++ {
			if ok, _ := m.TryAcquire("app", "alice", 0); !ok {
				b.Fatal("denied")
			}
			if err := m.Release("app", "alice"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("relayed", func(b *testing.B) {
		fed := twoDomains(b)
		host, edge := fed.Domains[0], fed.Domains[1]
		as, err := experiments.AttachApp(host, "lock", 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { as.Close() })
		if err := edge.Substrate.DiscoverPeers(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			granted, _, err := edge.Substrate.RemoteLock(context.Background(), as.AppID(), "edge/client-1", true)
			if err != nil || !granted {
				b.Fatalf("lock: %v %v", granted, err)
			}
			if _, _, err := edge.Substrate.RemoteLock(context.Background(), as.AppID(), "edge/client-1", false); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkA1OrbVsSocket measures one echoed message through the mini-ORB
// against the raw framed-TCP protocol (§6.2).
func BenchmarkA1OrbVsSocket(b *testing.B) {
	msg := wire.NewCommand("app#1", "c1", "get_param", wire.Param{Key: "name", Value: "x"})
	b.Run("orb", func(b *testing.B) {
		o := orb.New()
		if err := o.Listen("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { o.Close() })
		type echo struct{ M *wire.Message }
		o.Register("echo", orb.MethodMap{
			"echo": orb.Handler(func(a echo) (echo, error) { return a, nil }),
		})
		client := orb.New()
		b.Cleanup(func() { client.Close() })
		ctx := context.Background()
		ref := o.Ref("echo")
		var out echo
		if err := client.Invoke(ctx, ref, "echo", echo{M: msg}, &out); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := client.Invoke(ctx, ref, "echo", echo{M: msg}, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("socket", func(b *testing.B) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { ln.Close() })
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
			b.Fatal(err)
		}
		wc := wire.NewConn(raw)
		b.Cleanup(func() { wc.Close() })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := wc.Send(msg); err != nil {
				b.Fatal(err)
			}
			if _, err := wc.Recv(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkA2CodecAblation measures encode+decode of a typical update
// with the binary codec. Experiment A2 times the gob arm beside it.
func BenchmarkA2CodecAblation(b *testing.B) {
	msg := wire.NewUpdate("rutgers#12", 42,
		wire.Param{Key: "m.step", Value: "1200"},
		wire.Param{Key: "m.energy", Value: "3.14159"},
		wire.Param{Key: "p.source_freq", Value: "0.05"},
	)
	b.Run("binary", func(b *testing.B) {
		enc, err := wire.BinaryCodec{}.Encode(nil, msg)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(enc)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf, err := wire.BinaryCodec{}.Encode(nil, msg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := (wire.BinaryCodec{}).Decode(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkViewCommand measures a field-view snapshot: build, downsample
// and encode the oil-reservoir pressure grid.
func BenchmarkViewCommand(b *testing.B) {
	rt, err := app.NewRuntime(app.Config{
		Name: "res", Kernel: app.NewOilReservoir(48), ComputeSteps: 50,
		Users: []app.UserGrant{{User: "a", Privilege: "steer"}},
	})
	if err != nil {
		b.Fatal(err)
	}
	rt.ComputePhase()
	cmd := wire.NewCommand("a", "c", "view", wire.Param{Key: "name", Value: "pressure"})
	cmd.SetInt("max_points", 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := rt.HandleCommand(cmd)
		if resp.Kind != wire.KindResponse {
			b.Fatal(resp.Text)
		}
	}
}

// BenchmarkOnewayVsTwoWay measures the ORB's oneway (control-channel
// push) against a regular round-trip invocation.
func BenchmarkOnewayVsTwoWay(b *testing.B) {
	server := orb.New()
	if err := server.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { server.Close() })
	type note struct{ N int }
	server.Register("sink", orb.MethodMap{
		"note": orb.Handler(func(r note) (struct{}, error) { return struct{}{}, nil }),
	})
	client := orb.New()
	b.Cleanup(func() { client.Close() })
	ctx := context.Background()
	ref := server.Ref("sink")
	b.Run("oneway", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := client.InvokeOneway(ctx, ref, "note", note{N: i}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("twoway", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := client.Invoke(ctx, ref, "note", note{N: i}, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRelayBatching measures a 64-update burst relayed host -> edge
// with deliverBatch coalescing up to core.DefaultRelayBatch (32) messages
// per invocation. Run with -benchmem: the orbInv/msg metric comes from
// the substrate's invocation counters, not timing, so the N -> ceil(N/K)
// claim is visible directly (TestRelayBatchInvocationCount pins it).
func BenchmarkRelayBatching(b *testing.B) {
	b.Run("batch-32", func(b *testing.B) {
		fed := twoDomains(b)
		host, edge := fed.Domains[0], fed.Domains[1]
		as, err := experiments.AttachApp(host, "burst", 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { as.Close() })
		if err := edge.Substrate.DiscoverPeers(); err != nil {
			b.Fatal(err)
		}
		sess, err := experiments.LoginLocal(edge, "alice")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := edge.Server.ConnectApp(context.Background(), sess, as.AppID()); err != nil {
			b.Fatal(err)
		}
		appID := as.AppID()
		g := host.Server.Hub().Group(appID)

		const burst = 64
		var seq uint64
		wait := func(target uint64) {
			for {
				ents, _ := sess.Buffer.DrainEntriesWait(0, 100*time.Millisecond, nil)
				for _, e := range ents {
					m := e.Msg
					if m.Kind == wire.KindUpdate && m.Seq >= target {
						return
					}
				}
			}
		}
		// Warm the relay path.
		seq++
		g.BroadcastUpdate(wire.NewUpdate(appID, seq), "")
		wait(seq)

		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < burst; j++ {
				seq++
				g.BroadcastUpdate(wire.NewUpdate(appID, seq), "")
			}
			wait(seq)
		}
		b.StopTimer()
		var inv, delivered, dropped uint64
		for _, r := range host.Substrate.RelayStats() {
			inv += r.Invocations
			delivered += r.Delivered
			dropped += r.Dropped
		}
		if dropped != 0 {
			b.Fatalf("relay dropped %d messages mid-benchmark", dropped)
		}
		if delivered > 0 {
			b.ReportMetric(float64(inv)/float64(delivered), "orbInv/msg")
		}
	})
}

// BenchmarkRemoteAppsFanout measures one federation-wide application
// listing across 8 peers, each 20ms RTT away, with the directory cache
// disabled so every round pays the wire: one peer at a time (the seed
// behaviour) vs the scatter-gather pool. Sequential costs ~Σ(RTT), the
// fan-out ~max(RTT); the parent benchmark fails outright if the fan-out
// is not at least 2x faster.
func BenchmarkRemoteAppsFanout(b *testing.B) {
	const nPeers = 8
	rtt := 20 * time.Millisecond
	specs := []experiments.Spec{experiments.Place("portal", "home")}
	sites := make([]netsim.Site, nPeers)
	for i := range sites {
		sites[i] = netsim.Site(fmt.Sprintf("s%d", i+1))
		specs = append(specs, experiments.Place(fmt.Sprintf("d%d", i+1), sites[i]))
	}
	topo := func(t *netsim.Topology) {
		for i, si := range sites {
			t.SetRTT("home", si, rtt)
			for _, sj := range sites[i+1:] {
				t.SetRTT(si, sj, rtt)
			}
		}
	}
	// A clock nobody advances: no background traffic mid-measurement.
	fed, err := experiments.NewFederation(topo, clock.NewManual(), 0, specs...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(fed.Close)
	portal := fed.Domains[0]
	for i, d := range fed.Domains[1:] {
		as, err := experiments.AttachApp(d, fmt.Sprintf("fan-%d", i+1), 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { as.Close() })
	}
	portal.Substrate.SetDirCacheTTL(-1) // every listing pays the wire

	measure := func(b *testing.B, workers int) time.Duration {
		portal.Substrate.SetFanoutWorkers(workers)
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if apps := portal.Substrate.RemoteApps(context.Background(), "alice"); len(apps) != nPeers {
				b.Fatalf("listing saw %d apps, want %d", len(apps), nPeers)
			}
		}
		return time.Since(start) / time.Duration(b.N)
	}
	var seq, par time.Duration
	b.Run("sequential", func(b *testing.B) { seq = measure(b, 1) })
	b.Run("parallel", func(b *testing.B) { par = measure(b, 0) }) // 0 = default pool
	if seq > 0 && par > 0 {
		if seq < 2*par {
			b.Fatalf("fan-out not >=2x faster: sequential %v/op vs parallel %v/op", seq, par)
		}
		b.Logf("sequential %v/op vs parallel %v/op (%.1fx)", seq, par, float64(seq)/float64(par))
	}
}

// BenchmarkA3PollVsPush measures end-to-end propagation of one update
// between two servers in each design (§5.2.3 design choice): the
// substrate's push to a connected edge client, and the experiment-local
// log poller that stands in for the prototype's polling.
func BenchmarkA3PollVsPush(b *testing.B) {
	setup := func(b *testing.B) (host, edge *experiments.Domain, as *appproto.Session) {
		fed := twoDomains(b)
		host, edge = fed.Domains[0], fed.Domains[1]
		as, err := experiments.AttachApp(host, "prop", 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { as.Close() })
		if err := edge.Substrate.DiscoverPeers(); err != nil {
			b.Fatal(err)
		}
		return host, edge, as
	}
	b.Run("push", func(b *testing.B) {
		_, edge, as := setup(b)
		sess, err := experiments.LoginLocal(edge, "alice")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := edge.Server.ConnectApp(context.Background(), sess, as.AppID()); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for expect := uint64(1); expect <= uint64(b.N); expect++ {
			if _, err := as.RunPhase(); err != nil {
				b.Fatal(err)
			}
			got := false
			for !got {
				ents, _ := sess.Buffer.DrainEntriesWait(0, 100*time.Millisecond, nil)
				for _, e := range ents {
					m := e.Msg
					if m.Kind == wire.KindUpdate && m.Seq >= expect {
						got = true
					}
				}
			}
		}
	})
	b.Run("poll-5ms", func(b *testing.B) {
		host, edge, as := setup(b)
		p := experiments.StartLogPoller(host, edge, as.AppID(), 5*time.Millisecond)
		b.Cleanup(p.Stop)
		b.ResetTimer()
		for expect := uint64(1); expect <= uint64(b.N); expect++ {
			if _, err := as.RunPhase(); err != nil {
				b.Fatal(err)
			}
			if err := p.WaitUpdate(context.Background(), expect); err != nil {
				b.Fatal(err)
			}
		}
	})
}
