package core_test

import (
	"context"
	"testing"
	"time"

	"discover/internal/telemetry"
	"discover/internal/wire"
)

// spanByHop indexes a trace's spans by hop kind.
func spanByHop(rec telemetry.TraceRecord) map[string][]telemetry.Span {
	out := make(map[string][]telemetry.Span)
	for _, sp := range rec.Spans {
		out[sp.Hop] = append(out[sp.Hop], sp)
	}
	return out
}

// TestTracePropagationAcrossFederation checks that a trace minted at the
// edge domain rides the ORB wire trailer to the host domain and back: the
// finished record must contain the edge/queue/rpc hops recorded locally
// plus the servant hop recorded at the host, tagged with the host's ORB
// address.
func TestTracePropagationAcrossFederation(t *testing.T) {
	telemetry.Reset()
	n := newFederation(t, 0, "rutgers", "caltech")
	a, b := n.Domains[0], n.Domains[1]
	as := attachApp(t, a, "wave", defaultUsers())

	sess, err := b.Server.Login(context.Background(), "alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Server.ConnectApp(context.Background(), sess, as.AppID()); err != nil {
		t.Fatal(err)
	}

	tr := telemetry.Default().Start("command status")
	ctx := telemetry.WithTrace(context.Background(), tr)
	if _, err := b.Server.SubmitCommand(ctx, sess, "status", nil); err != nil {
		t.Fatal(err)
	}
	tr.Finish()

	rec, ok := telemetry.Default().Get(tr.ID())
	if !ok {
		t.Fatal("finished trace not found in ring")
	}
	hops := spanByHop(rec)
	for _, h := range []string{telemetry.HopEdge, telemetry.HopQueue, telemetry.HopRPC, telemetry.HopServant} {
		if len(hops[h]) == 0 {
			t.Fatalf("trace lacks %s span: %+v", h, rec.Spans)
		}
	}
	if loc := hops[telemetry.HopServant][0].Loc; loc != a.ORB.Addr() {
		t.Errorf("servant span Loc = %q, want host ORB %q", loc, a.ORB.Addr())
	}
	if peer := hops[telemetry.HopRPC][0].Peer; peer != a.ORB.Addr() {
		t.Errorf("rpc span Peer = %q, want host ORB %q", peer, a.ORB.Addr())
	}
	if loc := hops[telemetry.HopEdge][0].Loc; loc != "caltech" {
		t.Errorf("edge span Loc = %q, want caltech", loc)
	}
	// The rpc span excludes the echoed servant time, so the hop durations
	// must not exceed the trace total.
	var sum int64
	for _, sp := range rec.Spans {
		sum += sp.DurNanos
	}
	if sum > rec.TotalNanos+int64(time.Millisecond) {
		t.Errorf("span sum %d exceeds total %d", sum, rec.TotalNanos)
	}
}

// TestRelayHistogramsPopulated checks that the push relay records flush
// and queue-wait latencies as traffic flows to a subscribed peer.
func TestRelayHistogramsPopulated(t *testing.T) {
	telemetry.Reset()
	n := newFederation(t, 0, "rutgers", "caltech")
	a, b := n.Domains[0], n.Domains[1]
	as := attachApp(t, a, "wave", defaultUsers())

	sess, err := b.Server.Login(context.Background(), "alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Server.ConnectApp(context.Background(), sess, as.AppID()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		as.RunPhase()
		for _, m := range drained(sess.Buffer) {
			if m.Kind == wire.KindUpdate {
				return true
			}
		}
		return false
	})

	flush := telemetry.GetHistogram("discover_relay_flush_seconds", "peer", "caltech")
	wait := telemetry.GetHistogram("discover_relay_queue_wait_seconds", "peer", "caltech")
	if flush.Count() == 0 {
		t.Error("relay flush histogram empty after push traffic")
	}
	if wait.Count() == 0 {
		t.Error("relay queue-wait histogram empty after push traffic")
	}
}
