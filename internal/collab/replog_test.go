package collab

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"discover/internal/wire"
)

// genOps builds a plausible multi-origin op history: per origin a hub
// issues chats, strokes and membership changes in its own order, exactly
// what a federation of domains produces concurrently.
func genOps(rng *rand.Rand, origins, perOrigin int) []Op {
	var all []Op
	for o := 0; o < origins; o++ {
		h := NewHub(WithOrigin(fmt.Sprintf("d%d", o)))
		g := h.Group("app#1")
		for i := 0; i < perOrigin; i++ {
			client := fmt.Sprintf("c%d", rng.Intn(4))
			switch rng.Intn(5) {
			case 0:
				g.Chat(client, "alice", fmt.Sprintf("line %d", i))
			case 1:
				g.Whiteboard(client, []byte{byte(rng.Intn(256)), byte(i)})
			case 2:
				g.NoteJoin(client)
			case 3:
				g.NoteLeave(client)
			default:
				g.NoteSub(client, fmt.Sprintf("sub%d", rng.Intn(2)))
			}
		}
		ops, _, _ := g.LogDeltas(map[string]uint64{})
		all = append(all, ops...)
	}
	return all
}

type logFingerprint struct {
	hash    uint64
	mat     []byte
	members []MemberState
	vv      map[string]uint64
}

func fingerprint(g *Group) logFingerprint {
	return logFingerprint{
		hash: g.LogHash(), mat: g.Materialized(),
		members: g.ConvergedMembers(), vv: g.LogVV(),
	}
}

func sameState(t *testing.T, label string, a, b logFingerprint) {
	t.Helper()
	if a.hash != b.hash {
		t.Errorf("%s: hash %016x != %016x", label, a.hash, b.hash)
	}
	if !bytes.Equal(a.mat, b.mat) {
		t.Errorf("%s: materialized state diverged:\n%s\nvs\n%s", label, a.mat, b.mat)
	}
	if !reflect.DeepEqual(a.members, b.members) {
		t.Errorf("%s: members %v != %v", label, a.members, b.members)
	}
	if !reflect.DeepEqual(a.vv, b.vv) {
		t.Errorf("%s: vv %v != %v", label, a.vv, b.vv)
	}
}

// TestCollabMergeConvergesUnderAnyOrder is the CRDT property: applying
// the same op set in any order, with any duplication, yields the same
// hash, materialized state and membership fold (commutative,
// associative, idempotent). Eight seeds, four delivery schedules each.
func TestCollabMergeConvergesUnderAnyOrder(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := genOps(rng, 4, 20)

		ref := NewHub().Group("app#1")
		ref.ApplyOps(ops)
		want := fingerprint(ref)

		// Shuffled.
		shuffled := append([]Op(nil), ops...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		g := NewHub().Group("app#1")
		g.ApplyOps(shuffled)
		sameState(t, fmt.Sprintf("seed %d shuffled", seed), want, fingerprint(g))

		// Shuffled with a duplicated prefix re-applied afterwards.
		g = NewHub().Group("app#1")
		g.ApplyOps(shuffled)
		if fresh := g.ApplyOps(shuffled[:len(shuffled)/2]); len(fresh) != 0 {
			t.Errorf("seed %d: %d duplicate ops re-applied as fresh", seed, len(fresh))
		}
		sameState(t, fmt.Sprintf("seed %d dup prefix", seed), want, fingerprint(g))

		// Random batch splits, each batch through ApplyWire one message
		// at a time — the relay delivery path.
		g = NewHub().Group("app#1")
		for i := 0; i < len(shuffled); {
			n := 1 + rng.Intn(5)
			if i+n > len(shuffled) {
				n = len(shuffled) - i
			}
			for _, op := range shuffled[i : i+n] {
				g.ApplyWire(opMessage("app#1", op))
			}
			i += n
		}
		sameState(t, fmt.Sprintf("seed %d wire batches", seed), want, fingerprint(g))

		// Associativity: two replicas each apply half, then exchange
		// deltas both ways.
		ga := NewHub().Group("app#1")
		gb := NewHub().Group("app#1")
		ga.ApplyOps(shuffled[:len(shuffled)/2])
		gb.ApplyOps(shuffled[len(shuffled)/2:])
		aOps, aUpTo, _ := ga.LogDeltas(gb.LogVV())
		bOps, bUpTo, _ := gb.LogDeltas(ga.LogVV())
		ga.ApplyOps(bOps)
		ga.LogApplyUpTo(bUpTo)
		gb.ApplyOps(aOps)
		gb.LogApplyUpTo(aUpTo)
		sameState(t, fmt.Sprintf("seed %d exchange a", seed), want, fingerprint(ga))
		sameState(t, fmt.Sprintf("seed %d exchange b", seed), want, fingerprint(gb))
	}
}

// checkPresence asserts the relay gate's per-origin present counts equal
// a recount of the converged membership fold.
func checkPresence(t *testing.T, label string, g *Group) {
	t.Helper()
	want := map[string]int{}
	for _, m := range g.ConvergedMembers() {
		want[m.Origin]++
	}
	g.mu.Lock()
	got := make(map[string]int, len(g.log.present))
	for origin, n := range g.log.present {
		got[origin] = n
	}
	g.mu.Unlock()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: present counts %v, fold recount %v", label, got, want)
	}
	for o := 0; o < 4; o++ {
		origin := fmt.Sprintf("d%d", o)
		if g.Listening(origin) != (want[origin] > 0) {
			t.Errorf("%s: Listening(%s) = %v with %d present", label, origin, g.Listening(origin), want[origin])
		}
	}
}

// TestCollabPresenceCountsMatchFold is the relay gate's invariant: under
// any delivery order of membership ops (a leave arriving before the join
// it overrides is an LWW reorder), through eviction, WAL-style replay and
// a snapshot round trip, the per-origin present counts equal a recount
// of ConvergedMembers. Eight seeds.
func TestCollabPresenceCountsMatchFold(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := genOps(rng, 4, 20)
		shuffled := append([]Op(nil), ops...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

		g := NewHub(WithOrigin("home"), WithMemCap(8)).Group("app#1")
		for i, op := range shuffled {
			g.ApplyOps([]Op{op})
			checkPresence(t, fmt.Sprintf("seed %d after op %d", seed, i), g)
		}
		_, upTo, _ := g.LogDeltas(map[string]uint64{})
		g.LogApplyUpTo(upTo)
		g.NoteJoin("local") // evict the now-synced prefix past the cap
		checkPresence(t, fmt.Sprintf("seed %d evicted", seed), g)

		restored := NewHub(WithOrigin("home")).Group("app#1")
		restored.RestoreLog(g.SnapshotLog())
		checkPresence(t, fmt.Sprintf("seed %d snapshot round trip", seed), restored)
		if !reflect.DeepEqual(restored.ConvergedMembers(), g.ConvergedMembers()) {
			t.Errorf("seed %d: restored fold %v != %v", seed, restored.ConvergedMembers(), g.ConvergedMembers())
		}

		replayed := NewHub(WithOrigin("home")).Group("app#1")
		for _, op := range shuffled {
			replayed.RestoreOp(op)
		}
		checkPresence(t, fmt.Sprintf("seed %d journal replay", seed), replayed)
	}
}

// TestCollabAntiResurrectionGuard pins the eviction invariant: an op at
// or below the synced watermark whose memory copy was evicted must not
// re-apply as fresh (it would double-count into the hash).
func TestCollabAntiResurrectionGuard(t *testing.T) {
	src := NewHub(WithOrigin("src")).Group("app#1")
	for i := 0; i < 6; i++ {
		src.Chat("c1", "alice", fmt.Sprintf("line %d", i))
	}
	ops, upTo, _ := src.LogDeltas(map[string]uint64{})

	g := NewHub(WithMemCap(2)).Group("app#1")
	g.ApplyOps(ops)
	g.LogApplyUpTo(upTo)
	// The next insert triggers eviction of the now-synced prefix.
	extra := NewHub(WithOrigin("other")).Group("app#1")
	extra.Chat("c2", "bob", "tail")
	eOps, _, _ := extra.LogDeltas(map[string]uint64{})
	g.ApplyOps(eOps)

	info := g.LogInfo()
	if info.Evicted == 0 {
		t.Fatalf("expected evictions with memCap=2, info=%+v", info)
	}
	before := fingerprint(g)
	if fresh := g.ApplyOps(ops[:2]); len(fresh) != 0 {
		t.Errorf("evicted ops resurrected as fresh: %v", fresh)
	}
	sameState(t, "after resurrection attempt", before, fingerprint(g))
}

// TestCollabEvictionSplicesFromJournal proves bounded memory with full
// fidelity: far more strokes than the cap, yet latecomer replay and
// zero-watermark delta sync both reconstruct everything via the journal
// splice hooks.
func TestCollabEvictionSplicesFromJournal(t *testing.T) {
	journal := make(map[string][]Op)
	h := NewHub(WithOrigin("home"), WithMemCap(3))
	h.SetOpSink(func(app string, op Op) { journal[app] = append(journal[app], op) })
	h.SetFetchRange(func(app, origin string, from, to uint64) []Op {
		var out []Op
		for _, op := range journal[app] {
			if op.Origin == origin && op.Seq > from && op.Seq <= to {
				out = append(out, op)
			}
		}
		return out
	})
	h.SetFetchApply(func(app string, fromApply, toApply uint64) []Op {
		var out []Op
		for _, op := range journal[app] {
			if op.ApplySeq > fromApply && op.ApplySeq <= toApply {
				out = append(out, op)
			}
		}
		return out
	})

	g := h.Group("app#1")
	const n = 12
	for i := 0; i < n; i++ {
		g.Whiteboard("c1", []byte{byte(i)})
	}
	info := g.LogInfo()
	if info.Retained > 3 || info.Evicted != n-info.Retained {
		t.Fatalf("eviction did not hold the cap: %+v", info)
	}

	strokes, last, missed := g.StrokesSince(0)
	if len(strokes) != n || missed != 0 {
		t.Fatalf("replay after eviction: %d strokes, %d missed", len(strokes), missed)
	}
	for i, st := range strokes {
		if st.Data[0] != byte(i) {
			t.Fatalf("stroke %d out of order: % x", i, st.Data)
		}
	}
	if last != g.ApplyHead() {
		t.Errorf("watermark %d != apply head %d", last, g.ApplyHead())
	}

	// A cold partner (empty vv) is served the full history via the
	// range splice, and converges to the same hash.
	ops, upTo, truncated := g.LogDeltas(map[string]uint64{})
	if truncated {
		t.Fatal("delta sync reported truncation despite journal splice")
	}
	if len(ops) != n {
		t.Fatalf("delta sync returned %d of %d ops", len(ops), n)
	}
	cold := NewHub().Group("app#1")
	cold.ApplyOps(ops)
	cold.LogApplyUpTo(upTo)
	if cold.LogHash() != g.LogHash() {
		t.Errorf("cold partner hash %016x != %016x", cold.LogHash(), g.LogHash())
	}

	// Without splice hooks the same shape must degrade loudly, not
	// silently: truncated deltas and a missed count.
	bare := NewHub(WithOrigin("bare"), WithMemCap(3)).Group("app#1")
	for i := 0; i < n; i++ {
		bare.Whiteboard("c1", []byte{byte(i)})
	}
	if _, _, trunc := bare.LogDeltas(map[string]uint64{}); !trunc {
		t.Error("memory-only eviction did not mark deltas truncated")
	}
	if _, _, missed := bare.StrokesSince(0); missed == 0 {
		t.Error("memory-only eviction did not report missed strokes")
	}
}

// TestCollabSnapshotRestoreRoundtrip pins crash recovery: a snapshot
// restored into a fresh group reproduces hash, membership fold, and
// watermarks — including fold state whose ops were already evicted — and
// re-applying the original ops is a no-op.
func TestCollabSnapshotRestoreRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ops := genOps(rng, 3, 15)

	g := NewHub(WithOrigin("home"), WithMemCap(5)).Group("app#1")
	g.ApplyOps(ops)
	_, upTo, _ := g.LogDeltas(map[string]uint64{})
	g.LogApplyUpTo(upTo)
	g.Whiteboard("local", []byte{0xff}) // trigger eviction past the cap
	want := fingerprint(g)

	restored := NewHub(WithOrigin("home")).Group("app#1")
	restored.RestoreLog(g.SnapshotLog())
	sameState(t, "restored", want, fingerprint(restored))
	if restored.ApplyHead() != g.ApplyHead() {
		t.Errorf("apply head %d != %d", restored.ApplyHead(), g.ApplyHead())
	}
	if fresh := restored.ApplyOps(ops); len(fresh) != 0 {
		t.Errorf("%d ops re-applied as fresh after restore", len(fresh))
	}
	sameState(t, "restored+replayed", want, fingerprint(restored))
}

// TestCollabRestoreKeepsWatermarkBelowGaps pins the crash-recovery half
// of the convergence guarantee: relay delivery can leave per-origin gaps
// (apply has no contiguity check), and WAL replay must not raise the
// anti-entropy watermark past such a gap — otherwise the
// anti-resurrection guard would reject the missing ops forever and the
// replica would silently diverge.
func TestCollabRestoreKeepsWatermarkBelowGaps(t *testing.T) {
	src := NewHub(WithOrigin("src")).Group("app#1")
	for i := 0; i < 4; i++ {
		src.Chat("c1", "alice", fmt.Sprintf("line %d", i))
	}
	all, _, _ := src.LogDeltas(map[string]uint64{})

	var wal []Op
	h := NewHub(WithOrigin("home"))
	h.SetOpSink(func(app string, op Op) { wal = append(wal, op) })
	g := h.Group("app#1")
	g.ApplyOps([]Op{all[0], all[1], all[3]}) // seq 3 lost by the relay

	// Crash: replay the WAL into a fresh replica.
	rec := NewHub(WithOrigin("home")).Group("app#1")
	for _, op := range wal {
		rec.RestoreOp(op)
	}
	if vv := rec.LogVV(); vv["src"] != 2 {
		t.Fatalf("restored watermark = %d, want 2 (must not skip the gap at seq 3)", vv["src"])
	}
	// The next anti-entropy exchange repairs the gap and the replica
	// converges with the origin.
	if fresh := rec.ApplyOps([]Op{all[2]}); len(fresh) != 1 {
		t.Fatalf("gap op rejected after restore: %d applied as fresh", len(fresh))
	}
	if rec.LogHash() != src.LogHash() {
		t.Errorf("replica hash %016x != origin %016x after gap repair", rec.LogHash(), src.LogHash())
	}

	// Ops restored out of per-origin order (relay delivered 4 before
	// anti-entropy supplied 3) still yield a full contiguous watermark.
	rec2 := NewHub(WithOrigin("home")).Group("app#1")
	for _, op := range []Op{all[0], all[1], all[3], all[2]} {
		rec2.RestoreOp(op)
	}
	if vv := rec2.LogVV(); vv["src"] != 4 {
		t.Errorf("out-of-order restore watermark = %d, want 4", vv["src"])
	}
}

// journalHub builds a durable-domain hub: every applied op is journaled,
// and both splice hooks read the shared journal back.
func journalHub(journal map[string][]Op, opts ...HubOption) *Hub {
	h := NewHub(opts...)
	h.SetOpSink(func(app string, op Op) { journal[app] = append(journal[app], op) })
	h.SetFetchRange(func(app, origin string, from, to uint64) []Op {
		var out []Op
		for _, op := range journal[app] {
			if op.Origin == origin && op.Seq > from && op.Seq <= to {
				out = append(out, op)
			}
		}
		return out
	})
	h.SetFetchApply(func(app string, fromApply, toApply uint64) []Op {
		var out []Op
		for _, op := range journal[app] {
			if op.ApplySeq > fromApply && op.ApplySeq <= toApply {
				out = append(out, op)
			}
		}
		return out
	})
	return h
}

// TestCollabStrokeReplayNoDuplicateAcrossSplice pins the eviction/WAL
// seam: eviction is contiguous per origin but not in local apply order,
// so the WAL range below evictedMaxApp can cover strokes still retained
// in memory (remote ops above their origin's watermark). Replay must
// return each stroke exactly once, in watermark order.
func TestCollabStrokeReplayNoDuplicateAcrossSplice(t *testing.T) {
	journal := make(map[string][]Op)
	g := journalHub(journal, WithOrigin("home"), WithMemCap(3)).Group("app#1")

	// Remote strokes stay above their origin's watermark (no applyUpTo),
	// so they are retained while later local strokes evict around them.
	remote := NewHub(WithOrigin("far")).Group("app#1")
	remote.Whiteboard("c9", []byte{0xa0})
	remote.Whiteboard("c9", []byte{0xa1})
	rOps, _, _ := remote.LogDeltas(map[string]uint64{})
	g.ApplyOps(rOps)

	for i := 0; i < 6; i++ {
		g.Whiteboard("c1", []byte{byte(i)})
	}
	if info := g.LogInfo(); info.Evicted == 0 || info.Retained > 3 {
		t.Fatalf("expected evictions around the retained remote ops: %+v", info)
	}

	strokes, _, missed := g.StrokesSince(0)
	if missed != 0 {
		t.Fatalf("missed=%d with a journal splice available", missed)
	}
	seen := make(map[string]bool)
	for _, s := range strokes {
		k := fmt.Sprintf("%s/%d", s.Origin, s.Seq)
		if seen[k] {
			t.Fatalf("stroke %s replayed twice", k)
		}
		seen[k] = true
	}
	if len(strokes) != 8 {
		t.Fatalf("replayed %d strokes, want 8", len(strokes))
	}
	for i := 1; i < len(strokes); i++ {
		if strokes[i-1].Watermark >= strokes[i].Watermark {
			t.Fatalf("replay out of watermark order at %d: %+v", i, strokes)
		}
	}
}

// TestCollabIdentitylessStrokeRefused: a whiteboard message from a peer
// without op identity is refused. ApplyWire reports it as not new, so
// the server does not re-broadcast it, and the log stays untouched, so
// latecomers never replay it and the replica hash does not move.
func TestCollabIdentitylessStrokeRefused(t *testing.T) {
	g := NewHub(WithOrigin("host")).Group("app#1")
	before := g.LogInfo()
	m := &wire.Message{Kind: wire.KindWhiteboard, App: "app#1", Client: "peer/c1", Data: []byte{7}}
	if g.ApplyWire(m) {
		t.Fatal("identity-less stroke reported as new")
	}
	if _, ok := m.Get(paramOrigin); ok {
		t.Error("refused stroke was stamped with an op identity")
	}
	after := g.LogInfo()
	if after.Ops != before.Ops || after.Strokes != 0 || after.Hash != before.Hash {
		t.Errorf("refused stroke changed the log: %+v -> %+v", before, after)
	}
	if strokes, _, _ := g.StrokesSince(0); len(strokes) != 0 {
		t.Errorf("latecomer replay holds %d strokes, want 0", len(strokes))
	}
}

// TestMembershipWireValidation pins the meter-exemption predicate:
// genuine membership bookkeeping passes, anything carrying payload or a
// non-membership op stamp does not.
func TestMembershipWireValidation(t *testing.T) {
	g := NewHub(WithOrigin("home")).Group("app#1")
	for _, m := range []*wire.Message{
		g.NoteJoin("home/c1"),
		g.NoteLeave("home/c1"),
		g.NoteSub("home/c1", "team-a"),
		{Kind: wire.KindJoin, App: "app#1", Client: "home/c2"}, // legacy, identity-less
	} {
		if !MembershipWire(m) {
			t.Errorf("genuine membership message rejected: %v", m)
		}
	}
	chat, _ := g.Chat("home/c1", "alice", "hello")
	stroke, _ := g.Whiteboard("home/c1", []byte{1})
	forged := &wire.Message{Kind: wire.KindJoin, App: "app#1", Client: "home/c2"}
	stampOp(forged, Op{Origin: "home", Seq: 99, Clock: 99, Kind: OpChat})
	for _, m := range []*wire.Message{
		chat,
		stroke,
		{Kind: wire.KindJoin, App: "app#1", Client: "c", Data: []byte("bulk payload")},
		{Kind: wire.KindLeave, App: "app#1", Client: "c", Text: "bulk payload"},
		forged,
		nil,
	} {
		if MembershipWire(m) {
			t.Errorf("non-membership message accepted: %v", m)
		}
	}
}
