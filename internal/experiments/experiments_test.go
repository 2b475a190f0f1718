package experiments

import (
	"testing"
	"time"

	"discover/internal/wire"
)

// The experiment smoke tests run each experiment with reduced parameters
// and assert that the paper's shape claims hold. cmd/benchharness runs the
// full-size versions.

func checkResult(t *testing.T, res Result, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", res.ID, err)
	}
	if len(res.Rows) == 0 {
		t.Fatalf("%s: no rows", res.ID)
	}
	for _, row := range res.Rows {
		t.Logf("%s %-40s %s", res.ID, row.Name, row.Measured)
		if !row.Pass {
			t.Errorf("%s: shape failed: %s — measured %s", res.ID, row.Name, row.Measured)
		}
	}
}

func TestE1AppsPerServer(t *testing.T) {
	res, err := RunE1([]int{5, 41}, 150*time.Millisecond)
	checkResult(t, res, err)
}

func TestE2ClientsPerServer(t *testing.T) {
	res, err := RunE2([]int{3, 6}, 200*time.Millisecond)
	checkResult(t, res, err)
}

func TestE3ProtocolTradeoff(t *testing.T) {
	res, err := RunE3(200)
	checkResult(t, res, err)
}

func TestE4CollabTraffic(t *testing.T) {
	res, err := RunE4([]int{3}, 8, 30*time.Millisecond)
	checkResult(t, res, err)
}

func TestE5RemoteVsLocal(t *testing.T) {
	res, err := RunE5(8, 40*time.Millisecond)
	checkResult(t, res, err)
}

func TestE6DiscoveryAuth(t *testing.T) {
	res, err := RunE6(50)
	checkResult(t, res, err)
}

func TestE7SessionScalability(t *testing.T) {
	res, err := RunE7(9, 6)
	checkResult(t, res, err)
}

func TestE8SlowClientBuffers(t *testing.T) {
	res, err := RunE8(600, 32)
	checkResult(t, res, err)
}

func TestE9DistributedLocking(t *testing.T) {
	res, err := RunE9(8, 40*time.Millisecond)
	checkResult(t, res, err)
}

func TestA1OrbVsSocket(t *testing.T) {
	res, err := RunA1(500)
	checkResult(t, res, err)
}

func TestA2CodecAblation(t *testing.T) {
	res, err := RunA2(2000)
	checkResult(t, res, err)
}

// TestA2ArmsAgree checks that A2 times two codecs doing the same job:
// each arm round-trips a message to what the other arm reads back.
func TestA2ArmsAgree(t *testing.T) {
	update := wire.NewUpdate("rutgers#12", 42, wire.Param{Key: "m.step", Value: "1200"})
	update.Data = []byte{0, 1, 0xff}
	for _, m := range []*wire.Message{
		update,
		wire.NewCommand("203.0.113.9:7000#12", "client-4", "set_param", wire.Param{Key: "value", Value: "1.25"}),
		{Kind: wire.KindBye},
	} {
		be, err := binaryEncode(m)
		if err != nil {
			t.Fatal(err)
		}
		bm, err := wire.BinaryCodec{}.Decode(be)
		if err != nil {
			t.Fatal(err)
		}
		ge, err := gobEncode(m)
		if err != nil {
			t.Fatal(err)
		}
		gm, err := gobDecode(ge)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Equal(bm) || !m.Equal(gm) {
			t.Errorf("%v: binary read back %v, gob read back %v", m, bm, gm)
		}
	}
}

func TestA3PollVsPush(t *testing.T) {
	res, err := RunA3(5, 80*time.Millisecond, 20*time.Millisecond)
	checkResult(t, res, err)
}

func TestResultPass(t *testing.T) {
	r := Result{Rows: []Row{{Pass: true}, {Pass: true}}}
	if !r.Pass() {
		t.Error("all-pass result reported fail")
	}
	r.Rows = append(r.Rows, Row{Pass: false})
	if r.Pass() {
		t.Error("failing row not reflected")
	}
}

func TestR1ChaosFaultInjection(t *testing.T) {
	res, err := RunR1(5 * time.Millisecond)
	checkResult(t, res, err)
}

func TestR2KillRecover(t *testing.T) {
	res, err := RunR2(t.TempDir(), 24)
	checkResult(t, res, err)
}

func TestP1DirectoryFanout(t *testing.T) {
	res, err := RunP1([]int{2, 8}, 20*time.Millisecond)
	checkResult(t, res, err)
}

func TestO1TraceDecomposition(t *testing.T) {
	res, err := RunO1(10 * time.Millisecond)
	checkResult(t, res, err)
}

func TestS1VersionedEdge(t *testing.T) {
	res, err := RunS1()
	checkResult(t, res, err)
}

func TestS2StreamingEdge(t *testing.T) {
	res, err := RunS2(2000, 50*time.Millisecond, 750*time.Millisecond)
	checkResult(t, res, err)
	if _, ok := S2LastSnapshot(); !ok {
		t.Error("RunS2 left no snapshot for BENCH_S2.json")
	}
}
