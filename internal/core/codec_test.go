package core

import (
	"bytes"
	"encoding/gob"
	"testing"

	"discover/internal/collab"
	"discover/internal/orb"
	"discover/internal/server"
	"discover/internal/wire"
)

// TestServantTypesCodecByteIdentity checks that the ORB's cached codec
// writes exactly what a new gob.Encoder writes for every request and
// response type of the substrate's servants, on first use and on reuse,
// so descriptor interning and the wire format see no difference.
func TestServantTypesCodecByteIdentity(t *testing.T) {
	msg := &wire.Message{Kind: wire.KindUpdate, App: "rutgers#1", Client: "rutgers", Seq: 3, Op: "phase",
		Params: []wire.Param{{Key: "t", Value: "0.5"}}, Data: []byte{1}}
	ops := []collab.Op{{Origin: "rutgers", Seq: 1, Kind: collab.OpChat, Text: "hi", Data: []byte{2}}}
	vv := map[string]uint64{"rutgers": 1}
	for _, v := range []any{
		authUserReq{User: "alice"}, authUserResp{OK: true},
		listAppsReq{User: "alice"}, listAppsResp{Apps: []server.AppInfo{{ID: "rutgers#1", Name: "wave"}}},
		listUsersReq{}, listUsersResp{Users: []string{"alice"}},
		privilegeReq{User: "alice", App: "rutgers#1"}, privilegeResp{Privilege: "steer"},
		subscribeReq{}, subscribeResp{}, pingReq{}, pingResp{Name: "rutgers"},
		commandReq{Cmd: msg}, commandResp{}, lockReq{Owner: "caltech/client-1", Acquire: true},
		lockResp{Granted: true, Holder: "caltech/client-1"}, collabReq{Msg: msg, From: "caltech"}, collabResp{},
		collabSyncReq{From: "caltech", VV: vv}, collabSyncResp{Ops: ops, VV: vv},
		collabPushReq{From: "caltech", Ops: ops, VV: vv}, collabPushResp{},
		deliverReq{App: "rutgers#1", Msg: msg, From: "rutgers"}, deliverResp{},
		deliverBatchReq{Items: []deliverItem{{App: "rutgers#1", Msg: msg}}, From: "rutgers"}, deliverBatchResp{},
		eventReq{Ev: msg, From: "rutgers"}, eventResp{},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		for use := 0; use < 3; use++ {
			got, err := orb.Marshal(v)
			if err != nil {
				t.Fatalf("%T: %v", v, err)
			}
			if !bytes.Equal(got, buf.Bytes()) {
				t.Fatalf("%T use %d: cached Marshal differs from a new encoder", v, use)
			}
		}
	}
}
