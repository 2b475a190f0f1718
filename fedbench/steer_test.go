package main

import (
	"context"
	"testing"
	"time"

	"discover/internal/wire"
)

// A response no waiter took goes to the op that registered its seq, and
// ends that op's wait; one whose op has not registered yet is kept for it.
func TestStrayResponses(t *testing.T) {
	ss := &steerSession{waiting: map[uint64]*pendingResp{}, early: map[uint64]arrival{}}
	ctx, cancel := context.WithCancel(context.Background())
	p := &pendingResp{cancel: cancel}
	ss.waiting[7] = p
	at := time.Now()
	ss.stray(&wire.Message{Kind: wire.KindResponse, Seq: 7}, at)
	if p.got == nil || p.got.m.Seq != 7 || !p.got.at.Equal(at) || ctx.Err() == nil {
		t.Fatalf("waiting op: got %+v, ctx %v; want seq 7 at %v, cancelled", p.got, ctx.Err(), at)
	}
	ss.stray(&wire.Message{Kind: wire.KindResponse, Seq: 8}, at)
	if a, ok := ss.early[8]; !ok || a.m.Seq != 8 || len(ss.early) != 1 {
		t.Fatalf("early responses %v, want seq 8 kept", ss.early)
	}
}
