package archive

// Replay-determinism property (DESIGN §4i invariant): the journaled
// event stream of an archive store, replayed into a fresh store — from
// empty or from a mid-sequence snapshot — reproduces the identical
// state trajectory: same logs, same entries, same sequence numbers.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"discover/internal/storage"
	"discover/internal/storage/storagetest"
	"discover/internal/wire"
)

func TestReplayDeterminismProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			mem := storagetest.NewMemory()
			j := storage.NewJournal(mem, 0, nil)
			defer j.Close()
			src := NewStore()
			src.SetJournal(j)

			apps := []string{"srv#1", "srv#2", "srv#3"}
			nops := 50 + rng.Intn(200)
			snapAt := rng.Intn(nops)
			var snapState []byte
			var snapSeq uint64
			for i := 0; i < nops; i++ {
				if i == snapAt {
					// Capture the WAL position before gathering state, the
					// way server snapshots do.
					snapSeq = mem.LastSeq()
					var buf bytes.Buffer
					if err := src.SaveAll(&buf); err != nil {
						t.Fatal(err)
					}
					snapState = buf.Bytes()
				}
				app := apps[rng.Intn(len(apps))]
				client := ""
				if rng.Intn(2) == 0 {
					client = fmt.Sprintf("srv/client-%d", rng.Intn(4))
				}
				m := wire.NewEvent("srv", fmt.Sprintf("op-%d", i), "")
				if rng.Intn(2) == 0 {
					src.InteractionLog(app).Append(client, m)
				} else {
					src.ApplicationLog(app).Append(client, m)
				}
			}

			full := NewStore()
			replayInto(t, mem, full, 0)
			assertSameTrajectory(t, src, full, "full replay")

			fromSnap := NewStore()
			if len(snapState) > 0 {
				if err := fromSnap.LoadAll(bytes.NewReader(snapState)); err != nil {
					t.Fatal(err)
				}
			}
			replayInto(t, mem, fromSnap, snapSeq)
			assertSameTrajectory(t, src, fromSnap, "snapshot+tail replay")
		})
	}
}

// replayInto applies every journaled archive.append past `after` to dst.
func replayInto(t *testing.T, b storage.Backend, dst *Store, after uint64) {
	t.Helper()
	err := b.Replay(after, func(rec storage.Record) error {
		if rec.Kind != storage.KindArchiveAppend {
			return nil
		}
		var ev storage.ArchiveAppendEvent
		if err := storage.Decode(rec, &ev); err != nil {
			return err
		}
		dst.ApplyAppend(ev.Family, ev.App,
			Entry{Seq: ev.Seq, Time: ev.At, Client: ev.Client, Msg: ev.Msg})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func assertSameTrajectory(t *testing.T, want, got *Store, label string) {
	t.Helper()
	wantApps, gotApps := appSet(want), appSet(got)
	for app := range wantApps {
		if !gotApps[app] {
			t.Fatalf("%s: app %s missing", label, app)
		}
	}
	for app := range gotApps {
		if !wantApps[app] {
			t.Fatalf("%s: app %s appeared from nowhere", label, app)
		}
	}
	for app := range wantApps {
		assertSameLog(t, want.InteractionLog(app), got.InteractionLog(app), label+" interaction "+app)
		assertSameLog(t, want.ApplicationLog(app), got.ApplicationLog(app), label+" application "+app)
	}
}

func appSet(s *Store) map[string]bool {
	out := make(map[string]bool)
	for _, app := range s.Apps() {
		out[app] = true
	}
	return out
}

func assertSameLog(t *testing.T, want, got *Log, label string) {
	t.Helper()
	if want.LastSeq() != got.LastSeq() {
		t.Fatalf("%s: LastSeq %d != %d", label, got.LastSeq(), want.LastSeq())
	}
	we, ge := want.Since(0), got.Since(0)
	if len(we) != len(ge) {
		t.Fatalf("%s: %d entries, want %d", label, len(ge), len(we))
	}
	for i := range we {
		if we[i].Seq != ge[i].Seq || we[i].Client != ge[i].Client || we[i].Msg.Op != ge[i].Msg.Op {
			t.Fatalf("%s: entry %d diverged: got {%d %q %q}, want {%d %q %q}", label, i,
				ge[i].Seq, ge[i].Client, ge[i].Msg.Op, we[i].Seq, we[i].Client, we[i].Msg.Op)
		}
	}
}
