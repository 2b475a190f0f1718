package collab

import (
	"math/rand"
	"strings"
	"testing"

	"discover/internal/wire"
)

// Model-based test of delivery sets: after a random sequence of
// join/leave/mode/sub-group operations, BroadcastUpdate, ShareResponse and
// ShareView must deliver to exactly the member sets the paper specifies.
// Relay servers gain and lose members through replicated membership ops;
// BroadcastToListeners and ShareResponse reach a relay only while its
// server has a present member.
func TestDeliverySetsMatchModel(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	clientPool := []string{"c1", "c2", "c3", "c4", "c5"}
	relayPool := []string{"s1", "s2"}
	subs := []string{"", "viz", "mesh"}

	for trial := 0; trial < 80; trial++ {
		g := NewHub().Group("app")
		type member struct {
			enabled bool
			sub     string
			sink    *sink
		}
		members := map[string]*member{} // clients
		relays := map[string]*sink{}
		listening := map[string]bool{} // relay server -> has a present member
		var clock uint64
		seqs := map[string]uint64{}

		// Random membership mutations.
		for step := 0; step < 40; step++ {
			switch r.Intn(7) {
			case 0:
				id := clientPool[r.Intn(len(clientPool))]
				if _, in := members[id]; !in {
					s := &sink{}
					g.Join(id, s.deliver)
					members[id] = &member{enabled: true, sink: s}
				}
			case 1:
				id := clientPool[r.Intn(len(clientPool))]
				g.Leave(id)
				delete(members, id)
			case 2:
				id := clientPool[r.Intn(len(clientPool))]
				on := r.Intn(2) == 0
				ok := g.SetEnabled(id, on)
				if m, in := members[id]; in {
					if !ok {
						t.Fatal("SetEnabled failed for member")
					}
					m.enabled = on
				} else if ok {
					t.Fatal("SetEnabled succeeded for non-member")
				}
			case 3:
				id := clientPool[r.Intn(len(clientPool))]
				sub := subs[r.Intn(len(subs))]
				ok := g.JoinSub(id, sub)
				if m, in := members[id]; in {
					if !ok {
						t.Fatal("JoinSub failed for member")
					}
					m.sub = sub
				} else if ok {
					t.Fatal("JoinSub succeeded for non-member")
				}
			case 4:
				name := relayPool[r.Intn(len(relayPool))]
				if _, in := relays[name]; !in {
					s := &sink{}
					g.JoinRelay(name, s.deliver)
					relays[name] = s
				}
			case 5:
				name := relayPool[r.Intn(len(relayPool))]
				g.LeaveRelay(name)
				delete(relays, name)
			case 6:
				name := relayPool[r.Intn(len(relayPool))]
				kind := OpJoin
				if listening[name] {
					kind = OpLeave
				}
				clock++
				seqs[name]++
				g.ApplyOps([]Op{{Origin: name, Seq: seqs[name], Clock: clock, Kind: kind, Client: name + "/c"}})
				listening[name] = kind == OpJoin
			}
		}

		snapshot := func() map[string]int {
			out := map[string]int{}
			for id, m := range members {
				out[id] = m.sink.count()
			}
			for name, s := range relays {
				out["relay/"+name] = s.count()
			}
			return out
		}

		// 1. BroadcastUpdate: everyone except `except`, regardless of mode.
		before := snapshot()
		except := ""
		if r.Intn(2) == 0 && len(relays) > 0 {
			for name := range relays {
				except = "relay/" + name
				break
			}
		}
		g.BroadcastUpdate(wire.NewUpdate("app", 1), except)
		after := snapshot()
		for id := range after {
			wantDelta := 1
			if id == except {
				wantDelta = 0
			}
			if after[id]-before[id] != wantDelta {
				t.Fatalf("trial %d: BroadcastUpdate delta for %s = %d, want %d",
					trial, id, after[id]-before[id], wantDelta)
			}
		}

		// 1b. BroadcastToListeners: the same, minus relays of servers with
		// no present member.
		before = snapshot()
		g.BroadcastToListeners(wire.NewUpdate("app", 2), except)
		after = snapshot()
		for id := range after {
			wantDelta := 1
			if server, relay := strings.CutPrefix(id, "relay/"); id == except || (relay && !listening[server]) {
				wantDelta = 0
			}
			if after[id]-before[id] != wantDelta {
				t.Fatalf("trial %d: BroadcastToListeners delta for %s = %d, want %d",
					trial, id, after[id]-before[id], wantDelta)
			}
		}

		// 2. ShareResponse from a random member (if any).
		if len(members) > 0 {
			var requester string
			for id := range members {
				requester = id
				break
			}
			req := members[requester]
			before = snapshot()
			resp := wire.NewResponse(wire.NewCommand("app", requester, "x"), "ok")
			g.ShareResponse(requester, resp)
			after = snapshot()
			for id, m := range members {
				want := 0
				if id == requester {
					want = 1
				} else if req.enabled && m.enabled && m.sub == req.sub {
					want = 1
				}
				if after[id]-before[id] != want {
					t.Fatalf("trial %d: ShareResponse delta for %s = %d, want %d (req enabled=%v sub=%q; m enabled=%v sub=%q)",
						trial, id, after[id]-before[id], want, req.enabled, req.sub, m.enabled, m.sub)
				}
			}
			for name := range relays {
				id := "relay/" + name
				want := 0
				if req.enabled && listening[name] {
					want = 1
				}
				if after[id]-before[id] != want {
					t.Fatalf("trial %d: ShareResponse relay delta = %d, want %d", trial, after[id]-before[id], want)
				}
			}

			// 3. ShareView: sender's sub-group and relays, mode ignored.
			before = snapshot()
			view := &wire.Message{Kind: wire.KindViewShare, App: "app", Client: requester}
			g.ShareView(requester, view)
			after = snapshot()
			for id, m := range members {
				want := 0
				if id != requester && m.sub == req.sub {
					want = 1
				}
				if after[id]-before[id] != want {
					t.Fatalf("trial %d: ShareView delta for %s = %d, want %d", trial, id, after[id]-before[id], want)
				}
			}
			for name := range relays {
				id := "relay/" + name
				if after[id]-before[id] != 1 {
					t.Fatalf("trial %d: ShareView relay delta = %d, want 1", trial, after[id]-before[id])
				}
			}
		}

		// Membership listings agree with the model.
		if got, want := len(g.Members()), len(members); got != want {
			t.Fatalf("Members() = %d, want %d", got, want)
		}
		if got, want := len(g.Relays()), len(relays); got != want {
			t.Fatalf("Relays() = %d, want %d", got, want)
		}
	}
}
