package experiments

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"discover/internal/netsim"
	"discover/internal/session"
	"discover/internal/storage"
	"discover/internal/wire"
)

// RunR2 is the durability experiment: kill a domain mid-collaboration
// and recover it from its write-ahead log and snapshots.
//
// A durable host domain (file-backed WAL under dataDir) federates with
// an in-memory edge domain over the simulated WAN. An application runs
// at the host; alice steers it under the lock while a WAN portal client
// at the edge site holds an SSE stream on her session. Mid-collaboration
// the host's site is killed and the server crash-stops — no final
// snapshot, no WAL sync, no clean-shutdown marker, no graceful teardown
// reaches the log. The domain then restarts from disk and the
// experiment checks the paper's persistent-session claim end to end:
// the session and its token survive, the SSE client reconnects with its
// Last-Event-ID and splices (no events-lost marker), the steering lock
// is reasserted to its pre-crash holder, the interaction log trajectory
// is identical, database records and grants are intact, recovery time
// is bounded, and the app-identity counter does not reuse ids. A
// separate torn-tail check corrupts the newest WAL segment mid-record
// and verifies the next open truncates the tail instead of failing.
//
// dataDir roots the durable state; "" uses a temp directory. events is
// the number of steering-loop events before the kill.
func RunR2(dataDir string, events int) (Result, error) {
	if events <= 0 {
		events = 24
	}
	res := Result{ID: "R2", Title: "Durability: kill a domain, recover from WAL + snapshots"}
	if dataDir == "" {
		dir, err := os.MkdirTemp("", "discover-r2-*")
		if err != nil {
			return res, err
		}
		defer os.RemoveAll(dir)
		dataDir = dir
	}

	durable := Place("host", "east")
	durable.Config.DataDir = filepath.Join(dataDir, "host")
	durable.Config.SnapshotEvery = time.Hour       // recovery must replay the WAL, not dodge it
	durable.Config.WalSyncEvery = time.Millisecond // tight group-fsync for the crash window
	fed, err := NewFederation(func(t *netsim.Topology) { t.SetRTT("east", "west", 5*time.Millisecond) },
		nil, 0, durable, Place("edge", "west"))
	if err != nil {
		return res, err
	}
	defer fed.Close()
	host, edge := fed.Domains[0], fed.Domains[1]
	ctx := context.Background()

	as, err := AttachApp(host, "r2-app", 1)
	if err != nil {
		return res, err
	}
	defer as.Close()
	appID := as.AppID()

	alice, err := LoginLocal(host, "alice")
	if err != nil {
		return res, err
	}
	if _, err := host.Server.ConnectApp(ctx, alice, appID); err != nil {
		return res, err
	}
	if granted, _, err := host.Server.LockOp(ctx, alice, true); err != nil || !granted {
		return res, fmt.Errorf("r2: baseline lock: granted=%v err=%v", granted, err)
	}

	// A WAN portal client at the edge site parks an SSE stream on
	// alice's session before the collaboration starts.
	hc := fed.HTTPClientFrom("west")
	st, err := r2OpenStream(hc, host.BaseURL(), alice.ClientID, 0)
	if err != nil {
		return res, err
	}
	defer st.close()

	// Drive the collaboration: steering commands build the interaction
	// log, control events fan into the delivery queue and out the stream.
	for i := 0; i < events; i++ {
		if i%5 == 0 {
			if _, err := host.Server.SubmitCommand(ctx, alice, "set_param", []wire.Param{
				{Key: "name", Value: "source_amp"}, {Key: "value", Value: fmt.Sprintf("1.%d", i)},
			}); err != nil {
				return res, fmt.Errorf("r2: steer %d: %w", i, err)
			}
		}
		host.Server.HandleControlEvent(wire.NewEvent("host", "tick", strconv.Itoa(i)))
	}
	recID := host.Server.Records().Table("annotations").Insert("alice",
		map[string]string{"note": "pre-crash checkpoint"}, nil)
	if err := host.Server.Records().Table("annotations").GrantRead("alice", recID, "bob"); err != nil {
		return res, err
	}

	// The client has consumed roughly half the stream when the host dies;
	// the rest must come back through recovery.
	var lastID uint64
	for i := 0; i < events/2; i++ {
		id, _, err := st.readFrame()
		if err != nil {
			return res, fmt.Errorf("r2: pre-crash frame %d: %w", i, err)
		}
		if id > lastID {
			lastID = id
		}
	}

	// Quiesce (async app acks land in the FIFO), then capture the state
	// the restarted domain must reproduce.
	wantSeq := r2Quiesce(alice.Buffer.LastSeq, 2*time.Second)
	wantLog := host.Server.Archive().InteractionLog(appID).Since(0)
	wantHolder := alice.ClientID

	// --- Kill the host mid-collaboration. ---
	fed.Kill(host)
	var readErr error
	drained := 0
	for drained < 10000 { // frames already in flight may still arrive
		if _, _, readErr = st.readFrame(); readErr != nil {
			break
		}
		drained++
	}
	res.Rows = append(res.Rows, Row{
		Name:  "site kill severs the live stream",
		Paper: "a domain crash is abrupt: no goodbye frame, no flushed teardown",
		Measured: fmt.Sprintf("stream died after %d in-flight frames with %v; no clean marker on disk",
			drained, readErr),
		Pass: readErr != nil,
	})

	// --- Restart from disk. ---
	restartStart := time.Now()
	if err := fed.Restart(host); err != nil {
		return res, fmt.Errorf("r2: restart: %w", err)
	}
	restartTime := time.Since(restartStart)

	ss, ok := host.Server.StorageStats()
	if !ok {
		return res, fmt.Errorf("r2: restarted host has no storage stats")
	}
	rec := ss.Recovery
	const recoveryBudget = 2 * time.Second
	res.Rows = append(res.Rows, Row{
		Name:  "crash recovery replays the WAL",
		Paper: "restart reconstructs domain state from snapshot + log in bounded time",
		Measured: fmt.Sprintf("clean=%v replayed=%d records past snapshot seq %d, %d sessions, %d locks, recovery %.2fms (restart %s)",
			rec.Clean, rec.Replayed, rec.SnapshotSeq, rec.Sessions, rec.Locks,
			rec.DurationMS, restartTime.Round(time.Millisecond)),
		Pass: !rec.Clean && rec.Replayed > 0 && rec.Sessions >= 1 && rec.Locks >= 1 &&
			rec.DurationMS < float64(recoveryBudget.Milliseconds()),
	})

	got, ok := host.Server.Sessions().Peek(alice.ClientID)
	tokenErr := fmt.Errorf("session missing")
	if ok {
		tokenErr = host.Server.Auth().VerifyToken(got.Token)
	}
	res.Rows = append(res.Rows, Row{
		Name:  "sessions and credentials survive",
		Paper: "a restarted domain recognizes its clients: sessions, tokens, app bindings persist",
		Measured: fmt.Sprintf("session present=%v user=%q token verify err=%v binding=%q",
			ok, r2User(got), tokenErr, r2App(got)),
		Pass: ok && got.User == "alice" && tokenErr == nil && got.App() == appID,
	})
	if !ok {
		return res, fmt.Errorf("r2: session lost; cannot continue")
	}
	recoveredSeq := got.Buffer.LastSeq()

	// Reconnect the portal client against the restarted domain with its
	// resume token: the gap must splice with consecutive ids and no
	// events-lost marker, and a live post-recovery event must continue
	// the same sequence space.
	st2, err := r2OpenStream(hc, host.BaseURL(), alice.ClientID, lastID)
	if err != nil {
		return res, fmt.Errorf("r2: resume stream: %w", err)
	}
	defer st2.close()
	spliced, contiguous := 0, true
	lost := false
	prev := lastID
	for prev < recoveredSeq {
		id, m, err := st2.readFrame()
		if err != nil {
			return res, fmt.Errorf("r2: resume frame after id %d: %w", prev, err)
		}
		if id != prev+1 {
			contiguous = false
		}
		if m.Op == session.LostEvent {
			lost = true
		}
		prev = id
		spliced++
	}
	host.Server.HandleControlEvent(wire.NewEvent("host", "post-recovery", ""))
	liveID, liveMsg, liveErr := st2.readFrame()
	res.Rows = append(res.Rows, Row{
		Name:  "SSE resume splices across the restart",
		Paper: "clients reconnect with their resume token and splice replayed state, not an events-lost gap",
		Measured: fmt.Sprintf("replayed ids %d..%d (%d frames, contiguous=%v, lost-marker=%v); live event %q at id %d (err=%v)",
			lastID+1, prev, spliced, contiguous, lost, liveMsg.Op, liveID, liveErr),
		Pass: spliced > 0 && contiguous && !lost && liveErr == nil &&
			liveID == recoveredSeq+1 && liveMsg.Op == "post-recovery" && recoveredSeq >= wantSeq,
	})

	holder, held := host.Server.Locks().Holder(appID)
	res.Rows = append(res.Rows, Row{
		Name:  "steering lock reasserted",
		Paper: "interaction locks are domain state: the pre-crash holder still holds after recovery",
		Measured: fmt.Sprintf("holder %q (held=%v), want %q",
			holder, held, wantHolder),
		Pass: held && holder == wantHolder,
	})

	gotLog := host.Server.Archive().InteractionLog(appID).Since(0)
	sameLog := len(gotLog) == len(wantLog)
	if sameLog {
		for i := range wantLog {
			if gotLog[i].Seq != wantLog[i].Seq || gotLog[i].Msg.Op != wantLog[i].Msg.Op {
				sameLog = false
				break
			}
		}
	}
	res.Rows = append(res.Rows, Row{
		Name:  "interaction trajectory identical",
		Paper: "the session archive replays the same steering history after recovery",
		Measured: fmt.Sprintf("%d entries recovered, %d expected, per-entry match=%v",
			len(gotLog), len(wantLog), sameLog),
		Pass: sameLog && len(wantLog) > 0,
	})

	dbRec, dbErr := host.Server.Records().Table("annotations").Get("bob", recID)
	res.Rows = append(res.Rows, Row{
		Name:  "records and grants intact",
		Paper: "database records and their access grants persist across the crash",
		Measured: fmt.Sprintf("bob reads %s: err=%v owner=%q note=%q",
			recID, dbErr, dbRec.Owner, dbRec.Fields["note"]),
		Pass: dbErr == nil && dbRec.Owner == "alice" &&
			dbRec.Fields["note"] == "pre-crash checkpoint",
	})

	// The app process died with the crash; a reattach must get a fresh
	// identity (the counter recovered past #1), and the edge domain must
	// rediscover the reborn host and list the new app.
	as2, err := AttachApp(host, "r2-app", 1)
	if err != nil {
		return res, fmt.Errorf("r2: reattach: %w", err)
	}
	defer as2.Close()
	appID2 := as2.AppID()
	var edgeSees bool
	deadline := time.Now().Add(10 * time.Second)
	for !edgeSees && time.Now().Before(deadline) {
		for _, a := range edge.Server.Apps(ctx, "alice") {
			if a.ID == appID2 && !a.Unavailable {
				edgeSees = true
			}
		}
		if !edgeSees {
			time.Sleep(50 * time.Millisecond)
		}
	}
	res.Rows = append(res.Rows, Row{
		Name:  "app identity space survives; federation reconverges",
		Paper: "recovered counters never reuse ids, and peers rediscover the reborn domain",
		Measured: fmt.Sprintf("pre-crash app %s, reattached as %s, edge lists it available=%v",
			appID, appID2, edgeSees),
		Pass: appID2 != appID && edgeSees,
	})

	torn, tornBytes, err := r2TornTail(filepath.Join(dataDir, "torn"))
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows, torn)

	r2mu.Lock()
	r2last = &R2Snapshot{
		Events:          events,
		ReplayedRecords: rec.Replayed,
		RecoveredSess:   rec.Sessions,
		RecoveredLocks:  rec.Locks,
		RecoveryMS:      rec.DurationMS,
		RestartMS:       restartTime.Milliseconds(),
		SplicedFrames:   spliced,
		TornBytesCut:    tornBytes,
	}
	r2mu.Unlock()
	return res, nil
}

// R2Snapshot is the compact BENCH_R2.json record of the last RunR2.
type R2Snapshot struct {
	Events          int     `json:"events"`
	ReplayedRecords int     `json:"replayedRecords"`
	RecoveredSess   int     `json:"recoveredSessions"`
	RecoveredLocks  int     `json:"recoveredLocks"`
	RecoveryMS      float64 `json:"recoveryMs"`
	RestartMS       int64   `json:"restartMs"`
	SplicedFrames   int     `json:"splicedFrames"`
	TornBytesCut    uint64  `json:"tornBytesCut"`
}

var (
	r2mu   sync.Mutex
	r2last *R2Snapshot
)

// R2LastSnapshot returns the compact record of the most recent RunR2 in
// this process (cmd/benchharness writes it to BENCH_R2.json).
func R2LastSnapshot() (R2Snapshot, bool) {
	r2mu.Lock()
	defer r2mu.Unlock()
	if r2last == nil {
		return R2Snapshot{}, false
	}
	return *r2last, true
}

// r2TornTail simulates a partial write: a WAL whose newest segment loses
// its final bytes mid-record must open with the torn record truncated —
// the durable prefix replays and appends continue — rather than failing.
// Returns the number of bytes the reopen discarded.
func r2TornTail(dir string) (Row, uint64, error) {
	row := Row{
		Name:  "torn WAL tail truncated, not fatal",
		Paper: "a crash mid-append corrupts at most the unsynced tail; recovery keeps the durable prefix",
	}
	b, err := storage.OpenFile(dir)
	if err != nil {
		return row, 0, err
	}
	const n = 40
	for i := 1; i <= n; i++ {
		if _, err := b.Append(storage.KindQueuePush, []byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			b.Close()
			return row, 0, err
		}
	}
	if err := b.Sync(); err != nil {
		b.Close()
		return row, 0, err
	}
	b.Close() // crash: no clean marker

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		return row, 0, fmt.Errorf("r2: no WAL segments in %s: %v", dir, err)
	}
	sort.Strings(segs)
	newest := segs[len(segs)-1]
	fi, err := os.Stat(newest)
	if err != nil {
		return row, 0, err
	}
	if err := os.Truncate(newest, fi.Size()-3); err != nil {
		return row, 0, err
	}

	b2, err := storage.OpenFile(dir)
	if err != nil {
		row.Measured = fmt.Sprintf("reopen after tear failed: %v", err)
		return row, 0, nil
	}
	defer b2.Close()
	var replayed int
	var lastSeq uint64
	replayErr := b2.Replay(0, func(rec storage.Record) error {
		replayed++
		lastSeq = rec.Seq
		return nil
	})
	stats := b2.Stats()
	nextSeq, appendErr := b2.Append(storage.KindQueuePush, []byte(`{"i":"post-tear"}`))
	row.Measured = fmt.Sprintf("tore 3 bytes; reopen truncated %d bytes, replayed %d/%d records (last seq %d), next append seq %d (replay err=%v append err=%v)",
		stats.TruncatedBytes, replayed, n, lastSeq, nextSeq, replayErr, appendErr)
	row.Pass = stats.TruncatedBytes > 0 && replayed == n-1 && lastSeq == n-1 &&
		replayErr == nil && appendErr == nil && nextSeq == n
	return row, stats.TruncatedBytes, nil
}

// r2Quiesce polls read() until it holds still for one poll interval (the
// async app acks have landed), bounded by limit.
func r2Quiesce(read func() uint64, limit time.Duration) uint64 {
	deadline := time.Now().Add(limit)
	last := read()
	for time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		cur := read()
		if cur == last {
			return cur
		}
		last = cur
	}
	return last
}

// r2OpenStream opens the SSE endpoint through a WAN-shaped client with a
// generous overall guard so a wedged experiment fails instead of hanging.
func r2OpenStream(hc *http.Client, base, clientID string, lastID uint64) (*s2Stream, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		base+"/api/v1/session/"+url.PathEscape(clientID)+"/stream", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	if lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(lastID, 10))
	}
	resp, err := hc.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("r2: stream status %d", resp.StatusCode)
	}
	return &s2Stream{resp: resp, br: bufio.NewReader(resp.Body), cancel: cancel}, nil
}

// Nil-tolerant accessors for failure-row formatting.
func r2User(s *session.Session) string {
	if s == nil {
		return ""
	}
	return s.User
}

func r2App(s *session.Session) string {
	if s == nil {
		return ""
	}
	return s.App()
}
