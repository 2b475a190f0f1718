// Replicated group operation log: the CRDT underneath collaboration
// groups. Every durable group mutation — whiteboard strokes, chat lines,
// membership joins/leaves and sub-group switches — becomes an immutable
// Op keyed by (origin server, per-origin sequence). Replicas merge op
// sets so that application is idempotent (duplicate (origin,seq) pairs
// are dropped), commutative and associative (ops form a grow-only set;
// derived state folds by a deterministic total order), so any
// interleaving of direct relay delivery and anti-entropy delta sync
// converges every server to identical group state with no cross-WAN
// coordination round.
//
// Two orders coexist on purpose:
//
//   - The *total order* (Clock, Origin, Seq) — a Lamport clock broken by
//     origin name then sequence — is replica-invariant and drives every
//     derived fold (membership LWW, the materialized digest).
//   - The *apply order* (ApplySeq) is this replica's local arrival order.
//     It is monotonic and therefore resumable, which makes it the right
//     watermark for the HTTP whiteboard replay path (mirroring the SSE
//     resume tokens); it is never compared across replicas.
//
// Memory is bounded: beyond memCap retained ops the log evicts a
// contiguous per-origin prefix of ops already covered by the anti-entropy
// watermark (and, on durable domains, already journaled). Evicted ops
// stay part of the convergence hash and of every derived fold; delta
// sync and whiteboard replay below the eviction horizon splice them back
// from the WAL through the fetch hooks.
package collab

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// OpKind enumerates the replicated group operations.
type OpKind uint8

const (
	OpStroke OpKind = 1 + iota // whiteboard stroke (Data)
	OpChat                     // chat line (Text, User)
	OpJoin                     // client joined the group
	OpLeave                    // client left the group
	OpSub                      // client switched sub-group (Sub)
)

// Op is one immutable replicated group operation. Identity is
// (Origin, Seq); Clock is the origin's Lamport stamp at append time.
// ApplySeq is replica-local bookkeeping (see package comment) and is
// excluded from identity and hashing; receivers reassign it.
type Op struct {
	Origin string
	Seq    uint64
	Clock  uint64
	Kind   OpKind
	Client string
	User   string
	Sub    string
	Text   string
	Data   []byte
	Wall   int64 // origin wall-clock, informational only

	ApplySeq uint64
}

// hash folds the op's identity and payload into 64 bits for the
// xor-accumulated root hash (order-independent set fingerprint).
func (o *Op) hash() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|%d|%s|%s|%s|%s|", o.Origin, o.Seq, o.Clock, o.Kind, o.Client, o.User, o.Sub, o.Text)
	h.Write(o.Data)
	return h.Sum64()
}

// before reports whether o precedes p in the replica-invariant total
// order (Clock, Origin, Seq).
func (o *Op) before(p *Op) bool {
	if o.Clock != p.Clock {
		return o.Clock < p.Clock
	}
	if o.Origin != p.Origin {
		return o.Origin < p.Origin
	}
	return o.Seq < p.Seq
}

// memberKey identifies a client globally: session ids are per-server, so
// the converged membership fold namespaces them by origin.
func (o *Op) memberKey() string { return o.Origin + "/" + o.Client }

// MemberState is one entry of the converged cross-domain membership fold.
type MemberState struct {
	Origin string `json:"origin"`
	Client string `json:"client"`
	Sub    string `json:"sub,omitempty"`
}

// memberFold is the LWW register per member key: the winning op decides
// presence and sub-group. A member's ops all originate at its own server
// in issue order, so "latest in total order" matches real causality.
type memberFold struct {
	winClock  uint64
	winOrigin string
	winSeq    uint64
	present   bool
	origin    string
	client    string
	sub       string
}

// originLog is the per-origin slice of the op set.
type originLog struct {
	ops       map[uint64]Op
	synced    uint64 // anti-entropy watermark: everything <= synced was applied here
	evictedTo uint64 // contiguous evicted prefix, always <= synced
	maxSeq    uint64
}

// FetchRangeFunc splices evicted ops of one origin back from durable
// storage: every op with fromSeq < Seq <= toSeq, in any order.
type FetchRangeFunc func(origin string, fromSeq, toSeq uint64) []Op

// FetchApplyFunc splices evicted ops back by local apply watermark:
// every op with fromApply < ApplySeq <= toApply.
type FetchApplyFunc func(fromApply, toApply uint64) []Op

// opLog is one group's replicated log. Not self-locking: the owning
// Group serializes access under its mutex.
type opLog struct {
	self   string
	memCap int

	fetchRange FetchRangeFunc // may be nil (memory-only domain)
	fetchApply FetchApplyFunc // may be nil
	sink       func(op Op)    // journal writer, called once per newly applied op

	origins map[string]*originLog
	members map[string]*memberFold
	present map[string]int // per-origin count of present members in the fold

	clock    uint64
	nextSeq  uint64
	applySeq uint64
	rootHash uint64

	order []opKey // retained ops in apply order (lazily compacted)

	retained       int
	evicted        int
	strokes        int // applied stroke ops, retained + evicted
	evictedStrokes int
	chats          int
	evictedMaxApp  uint64 // highest ApplySeq among evicted ops
}

type opKey struct {
	origin string
	seq    uint64
}

// defaultMemCap bounds retained ops per group when the hub does not
// override it: generous for live sessions, small enough that a week-long
// collaboratory session cannot grow a server without bound.
const defaultMemCap = 4096

func newOpLog(self string, memCap int) *opLog {
	if memCap <= 0 {
		memCap = defaultMemCap
	}
	return &opLog{
		self:    self,
		memCap:  memCap,
		origins: make(map[string]*originLog),
		members: make(map[string]*memberFold),
		present: make(map[string]int),
	}
}

func (l *opLog) originState(name string) *originLog {
	st, ok := l.origins[name]
	if !ok {
		st = &originLog{ops: make(map[uint64]Op)}
		l.origins[name] = st
	}
	return st
}

// append creates and applies a new locally originated op. The origin is
// authoritative for its own sequence, so the self watermark advances
// immediately.
func (l *opLog) append(kind OpKind, client, user, sub, text string, data []byte, wall int64) Op {
	st := l.originState(l.self)
	if st.maxSeq > l.nextSeq {
		l.nextSeq = st.maxSeq // adopt restored/merged history of our own origin
	}
	l.nextSeq++
	l.clock++
	op := Op{
		Origin: l.self, Seq: l.nextSeq, Clock: l.clock,
		Kind: kind, Client: client, User: user, Sub: sub, Text: text, Data: data, Wall: wall,
	}
	l.insert(op, st)
	st.synced = l.nextSeq
	return op
}

// apply merges one remote op. Returns false for duplicates: already
// retained, already evicted (seq inside the evicted prefix), or covered
// by the anti-entropy watermark — the anti-resurrection guard that keeps
// a straggler copy of an old op from being double-counted after sync
// advanced past it.
func (l *opLog) apply(op Op) bool {
	st := l.originState(op.Origin)
	if op.Seq <= st.evictedTo {
		return false
	}
	if _, dup := st.ops[op.Seq]; dup {
		return false
	}
	if op.Seq <= st.synced {
		return false
	}
	if op.Clock > l.clock {
		l.clock = op.Clock
	}
	l.insert(op, st)
	return true
}

// insert is the shared tail of append/apply: assign the local apply
// stamp, index, fold, hash, journal, evict.
func (l *opLog) insert(op Op, st *originLog) {
	l.applySeq++
	op.ApplySeq = l.applySeq
	st.ops[op.Seq] = op
	if op.Seq > st.maxSeq {
		st.maxSeq = op.Seq
	}
	l.order = append(l.order, opKey{op.Origin, op.Seq})
	l.retained++
	l.rootHash ^= op.hash()
	switch op.Kind {
	case OpStroke:
		l.strokes++
	case OpChat:
		l.chats++
	case OpJoin, OpLeave, OpSub:
		l.foldMember(op)
	}
	if l.sink != nil {
		l.sink(op)
	}
	if l.retained > l.memCap {
		l.evict()
	}
}

// restore re-applies an op recovered from snapshot or WAL, preserving
// its original local apply stamp so HTTP watermarks stay valid across a
// crash (the SSE splice property). The anti-entropy watermark advances
// only over a contiguous restored prefix: relay delivery can leave
// per-origin gaps (apply has no contiguity check), and raising synced
// past a gap would make the anti-resurrection guard in apply and the
// sync floor in deltasSince reject the missing ops forever. Gapped ops
// stay above the watermark so the next anti-entropy exchange repairs
// them.
func (l *opLog) restore(op Op) bool {
	st := l.originState(op.Origin)
	if op.Seq <= st.evictedTo {
		return false
	}
	if _, dup := st.ops[op.Seq]; dup {
		return false
	}
	if op.Clock > l.clock {
		l.clock = op.Clock
	}
	if op.ApplySeq > l.applySeq {
		l.applySeq = op.ApplySeq
	}
	st.ops[op.Seq] = op
	if op.Seq > st.maxSeq {
		st.maxSeq = op.Seq
	}
	if op.Seq == st.synced+1 {
		st.synced = op.Seq
		for { // extend over ops restored out of per-origin order
			if _, held := st.ops[st.synced+1]; !held {
				break
			}
			st.synced++
		}
	}
	if op.Origin == l.self && op.Seq > l.nextSeq {
		l.nextSeq = op.Seq
	}
	l.order = append(l.order, opKey{op.Origin, op.Seq})
	l.retained++
	l.rootHash ^= op.hash()
	switch op.Kind {
	case OpStroke:
		l.strokes++
	case OpChat:
		l.chats++
	case OpJoin, OpLeave, OpSub:
		l.foldMember(op)
	}
	if l.retained > l.memCap {
		l.evict()
	}
	return true
}

// foldMember applies the LWW membership register for the op's member.
func (l *opLog) foldMember(op Op) {
	key := op.memberKey()
	f, ok := l.members[key]
	if !ok {
		f = &memberFold{origin: op.Origin, client: op.Client}
		l.members[key] = f
	} else {
		win := Op{Clock: f.winClock, Origin: f.winOrigin, Seq: f.winSeq}
		if op.before(&win) {
			return // an op we already folded wins
		}
	}
	f.winClock, f.winOrigin, f.winSeq = op.Clock, op.Origin, op.Seq
	was := f.present
	switch op.Kind {
	case OpJoin:
		f.present = true
		f.sub = ""
	case OpLeave:
		f.present = false
	case OpSub:
		f.present = true
		f.sub = op.Sub
	}
	if f.present != was {
		l.countPresent(f.origin, f.present)
	}
}

// countPresent moves one member of origin across the present/absent
// boundary. Origins with no present member leave the map, so it holds at
// most one entry per domain with a member in the group.
func (l *opLog) countPresent(origin string, present bool) {
	if present {
		l.present[origin]++
		return
	}
	if l.present[origin]--; l.present[origin] <= 0 {
		delete(l.present, origin)
	}
}

// evict drops retained ops in apply order until the cap holds again. An
// op is evictable only when it extends its origin's contiguous evicted
// prefix and sits at or below the anti-entropy watermark — so delta sync
// can always reconstruct exactly what a partner is missing (from memory
// or the WAL splice), and nothing above a watermark ever silently
// disappears. Derived state (hash, folds, counters) already covers
// evicted ops, so eviction never changes observable group state.
func (l *opLog) evict() {
	kept := l.order[:0]
	for i, k := range l.order {
		st := l.origins[k.origin]
		op, live := st.ops[k.seq]
		if !live {
			continue // lazily compact entries removed by clear
		}
		if l.retained <= l.memCap {
			kept = append(kept, l.order[i:]...)
			break
		}
		if k.seq != st.evictedTo+1 || k.seq > st.synced {
			kept = append(kept, k)
			continue
		}
		delete(st.ops, k.seq)
		st.evictedTo = k.seq
		l.retained--
		l.evicted++
		if op.Kind == OpStroke {
			l.evictedStrokes++
		}
		if op.ApplySeq > l.evictedMaxApp {
			l.evictedMaxApp = op.ApplySeq
		}
	}
	l.order = kept
}

// vv returns the anti-entropy watermark vector.
func (l *opLog) vv() map[string]uint64 {
	out := make(map[string]uint64, len(l.origins))
	for name, st := range l.origins {
		out[name] = st.synced
	}
	return out
}

// deltasSince returns every op a partner with watermark vector `vv` is
// missing, plus the watermark vector the partner may adopt after
// applying them. Ops are sorted by (origin, seq) so per-origin prefixes
// apply in order. When the partner's floor lies below our eviction
// horizon the gap is spliced from the WAL through fetchRange; if the
// splice cannot produce the complete range the partner's adoptable
// watermark for that origin stays at its floor (no silent gaps) and
// truncated reports it.
func (l *opLog) deltasSince(vv map[string]uint64) (ops []Op, upTo map[string]uint64, truncated bool) {
	upTo = make(map[string]uint64, len(l.origins))
	names := make([]string, 0, len(l.origins))
	for name := range l.origins {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := l.origins[name]
		floor := vv[name]
		covered := true
		if floor < st.evictedTo {
			fetched := l.spliceRange(name, floor, st.evictedTo)
			if fetched == nil {
				covered = false
			} else {
				ops = append(ops, fetched...)
			}
		}
		seqs := make([]uint64, 0, len(st.ops))
		for seq := range st.ops {
			if seq > floor {
				seqs = append(seqs, seq)
			}
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for _, seq := range seqs {
			ops = append(ops, st.ops[seq])
		}
		if covered {
			upTo[name] = st.synced
		} else {
			upTo[name] = floor
			truncated = true
		}
	}
	return ops, upTo, truncated
}

// spliceRange fetches the complete evicted range (from, to] of one
// origin from durable storage, or nil if any op is missing.
func (l *opLog) spliceRange(origin string, from, to uint64) []Op {
	if l.fetchRange == nil {
		return nil
	}
	got := l.fetchRange(origin, from, to)
	want := int(to - from)
	if len(got) < want {
		return nil
	}
	seen := make(map[uint64]Op, want)
	for _, op := range got {
		if op.Origin == origin && op.Seq > from && op.Seq <= to {
			seen[op.Seq] = op
		}
	}
	if len(seen) != want {
		return nil
	}
	out := make([]Op, 0, want)
	for seq := from + 1; seq <= to; seq++ {
		out = append(out, seen[seq])
	}
	return out
}

// applyUpTo raises the anti-entropy watermarks after a completed delta
// exchange. Must run after the delta ops themselves were applied, or the
// anti-resurrection guard in apply would swallow them.
func (l *opLog) applyUpTo(upTo map[string]uint64) {
	for name, seq := range upTo {
		st := l.originState(name)
		if seq > st.synced {
			st.synced = seq
		}
		if seq > st.maxSeq {
			st.maxSeq = seq
		}
	}
}

// convergedMembers lists the membership fold, sorted by (origin, client).
func (l *opLog) convergedMembers() []MemberState {
	out := make([]MemberState, 0, len(l.members))
	for _, f := range l.members {
		if !f.present {
			continue
		}
		out = append(out, MemberState{Origin: f.origin, Client: f.client, Sub: f.sub})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Origin != out[j].Origin {
			return out[i].Origin < out[j].Origin
		}
		return out[i].Client < out[j].Client
	})
	return out
}

// materialized renders the converged group state deterministically: two
// replicas produce byte-identical output iff they hold the same op set.
// The render is the membership fold in sorted order, per-origin op-set
// shape, global counters and the order-independent root hash — together
// these pin the full derived state (strokes and chats are immutable
// payloads of the hashed set).
func (l *opLog) materialized() []byte {
	var out []byte
	out = fmt.Appendf(out, "hash=%016x strokes=%d chats=%d\n", l.rootHash, l.strokes, l.chats)
	names := make([]string, 0, len(l.origins))
	for name := range l.origins {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := l.origins[name]
		out = fmt.Appendf(out, "origin=%s max=%d held=%d\n", name, st.maxSeq, len(st.ops)+int(st.evictedTo))
	}
	for _, m := range l.convergedMembers() {
		out = fmt.Appendf(out, "member=%s/%s sub=%q\n", m.Origin, m.Client, m.Sub)
	}
	return out
}

// StrokeEntry is one replayable whiteboard stroke with its resumable
// local watermark.
type StrokeEntry struct {
	Watermark uint64 `json:"watermark"`
	Origin    string `json:"origin"`
	Seq       uint64 `json:"seq"`
	Client    string `json:"client"`
	Data      []byte `json:"data"`
}

// strokesSince returns retained strokes with ApplySeq > from in apply
// order, splicing evicted strokes from the WAL when the watermark
// predates the eviction horizon. missed counts evicted strokes that
// could not be spliced (memory-only domain past its cap).
func (l *opLog) strokesSince(from uint64) (entries []StrokeEntry, last uint64, missed int) {
	last = l.applySeq
	if from < l.evictedMaxApp {
		var spliced []Op
		if l.fetchApply != nil {
			spliced = l.fetchApply(from, l.evictedMaxApp)
		}
		found := 0
		for _, op := range spliced {
			if op.Kind != OpStroke || op.ApplySeq <= from || op.ApplySeq > l.evictedMaxApp {
				continue
			}
			// Eviction is contiguous per origin but not in ApplySeq, so the
			// WAL range can cover ops still retained; skip them or the live
			// scan below would return the same stroke twice.
			if st, ok := l.origins[op.Origin]; ok {
				if _, held := st.ops[op.Seq]; held {
					continue
				}
			}
			entries = append(entries, strokeEntry(op))
			found++
		}
		if from == 0 && found < l.evictedStrokes {
			missed = l.evictedStrokes - found
		}
	}
	for _, k := range l.order {
		st := l.origins[k.origin]
		op, ok := st.ops[k.seq]
		if !ok || op.Kind != OpStroke || op.ApplySeq <= from {
			continue
		}
		entries = append(entries, strokeEntry(op))
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Watermark < entries[j].Watermark })
	return entries, last, missed
}

func strokeEntry(op Op) StrokeEntry {
	return StrokeEntry{Watermark: op.ApplySeq, Origin: op.Origin, Seq: op.Seq, Client: op.Client, Data: op.Data}
}

// MemberFoldSnap is the gob image of one membership LWW register.
type MemberFoldSnap struct {
	Origin, Client, Sub string
	Present             bool
	WinClock, WinSeq    uint64
	WinOrigin           string
}

// LogSnapshot is the gob image of one group's log for domain snapshots.
type LogSnapshot struct {
	Ops       []Op
	Members   []MemberFoldSnap
	Synced    map[string]uint64
	EvictedTo map[string]uint64
	MaxSeq    map[string]uint64
	NextSeq   uint64
	Clock     uint64
	ApplySeq  uint64
	Hash      uint64
	Evicted   int
	Strokes   int
	EvStrokes int
	Chats     int
	EvMaxApp  uint64
}

// snapshotLog captures the retained window plus enough bookkeeping to
// resume watermarks, eviction horizons and the hash over evicted ops.
func (l *opLog) snapshotLog() LogSnapshot {
	snap := LogSnapshot{
		Synced:    make(map[string]uint64, len(l.origins)),
		EvictedTo: make(map[string]uint64, len(l.origins)),
		MaxSeq:    make(map[string]uint64, len(l.origins)),
		NextSeq:   l.nextSeq,
		Clock:     l.clock,
		ApplySeq:  l.applySeq,
		Hash:      l.rootHash,
		Evicted:   l.evicted,
		Strokes:   l.strokes,
		EvStrokes: l.evictedStrokes,
		Chats:     l.chats,
		EvMaxApp:  l.evictedMaxApp,
	}
	for _, k := range l.order {
		if op, ok := l.origins[k.origin].ops[k.seq]; ok {
			snap.Ops = append(snap.Ops, op)
		}
	}
	for name, st := range l.origins {
		snap.Synced[name] = st.synced
		snap.EvictedTo[name] = st.evictedTo
		snap.MaxSeq[name] = st.maxSeq
	}
	for _, f := range l.members {
		snap.Members = append(snap.Members, MemberFoldSnap{
			Origin: f.origin, Client: f.client, Sub: f.sub, Present: f.present,
			WinClock: f.winClock, WinSeq: f.winSeq, WinOrigin: f.winOrigin,
		})
	}
	return snap
}

// restoreLog replaces the log's state with a snapshot image.
func (l *opLog) restoreLog(snap LogSnapshot) {
	l.origins = make(map[string]*originLog)
	l.members = make(map[string]*memberFold)
	l.present = make(map[string]int)
	l.order = nil
	l.retained = 0
	l.nextSeq = snap.NextSeq
	l.clock = snap.Clock
	l.applySeq = snap.ApplySeq
	l.rootHash = snap.Hash
	l.evicted = snap.Evicted
	l.strokes = snap.Strokes
	l.evictedStrokes = snap.EvStrokes
	l.chats = snap.Chats
	l.evictedMaxApp = snap.EvMaxApp
	for name, synced := range snap.Synced {
		st := l.originState(name)
		st.synced = synced
		st.evictedTo = snap.EvictedTo[name]
		st.maxSeq = snap.MaxSeq[name]
	}
	// The persisted fold covers evicted membership ops whose WAL records
	// may have been compacted away; re-folding retained ops afterwards is
	// an idempotent LWW no-op.
	for _, f := range snap.Members {
		l.members[f.Origin+"/"+f.Client] = &memberFold{
			winClock: f.WinClock, winOrigin: f.WinOrigin, winSeq: f.WinSeq,
			present: f.Present, origin: f.Origin, client: f.Client, sub: f.Sub,
		}
		if f.Present {
			l.countPresent(f.Origin, true)
		}
	}
	sort.Slice(snap.Ops, func(i, j int) bool { return snap.Ops[i].ApplySeq < snap.Ops[j].ApplySeq })
	for _, op := range snap.Ops {
		st := l.originState(op.Origin)
		st.ops[op.Seq] = op
		l.order = append(l.order, opKey{op.Origin, op.Seq})
		l.retained++
		if op.Kind == OpJoin || op.Kind == OpLeave || op.Kind == OpSub {
			l.foldMember(op)
		}
	}
}
