package orb

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"

	"discover/internal/wire"
)

// TestPoolConnConcurrentOnewayAndRoundTrip interleaves sendOneway and
// roundTrip from many goroutines on ONE poolConn and asserts, under
// -race:
//
//   - every roundTrip reply carries exactly the body its caller sent
//     (request/reply multiplexing never cross-matches), and
//   - oneway frames from each sender goroutine arrive on the wire in that
//     goroutine's send order (FIFO framing survives the shared
//     single-write encoder).
//
// The peer is a raw frame reader, not a full ORB, so frame arrival order
// is observed directly rather than through servant dispatch.
func TestPoolConnConcurrentOnewayAndRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	type rec struct{ sender, seq uint32 }
	recCh := make(chan rec, 1<<14)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		var magic [len(wireMagic)]byte
		if _, err := io.ReadFull(br, magic[:]); err != nil || string(magic[:]) != wireMagic {
			t.Errorf("connection preface %q, want %q", magic[:], wireMagic)
			return
		}
		targets, defs := newTargetDefs(), wire.NewInternDefs()
		interns := wire.NewInternTable()
		var peerStats orbStats
		for {
			h, payload, err := wire.ReadV2Frame(br, nil)
			if err != nil {
				return
			}
			rq, err := decodeRequestV2(payload, h.Stream, h.Flags&wire.V2FlagOneway != 0, targets, defs)
			if err != nil || h.Type != wire.V2FrameRequest {
				t.Error("malformed frame reached the peer")
				return
			}
			if rq.oneway {
				recCh <- rec{
					sender: binary.BigEndian.Uint32(rq.args[:4]),
					seq:    binary.BigEndian.Uint32(rq.args[4:8]),
				}
				continue
			}
			// Echo the request body so callers can verify matching.
			body := appendReplyV2(nil, interns, &peerStats, &reply{id: rq.id, status: replyOK, body: rq.args})
			frame := append(wire.AppendV2Header(nil, wire.V2FrameReply, 0, rq.id, len(body)), body...)
			if _, err := conn.Write(frame); err != nil {
				return
			}
		}
	}()

	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var stats orbStats
	pc := newPoolConn(raw, &stats)
	defer pc.close(errors.New("test over"))

	const senders, perSender = 8, 150
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var arg [8]byte
			binary.BigEndian.PutUint32(arg[:4], uint32(s))
			for i := 0; i < perSender; i++ {
				binary.BigEndian.PutUint32(arg[4:], uint32(i))
				if i%3 == 2 { // interleave a round trip among oneways
					body, _, err := pc.roundTrip(context.Background(), "obj", "echo", arg[:], 0)
					if err != nil {
						t.Errorf("sender %d roundTrip %d: %v", s, i, err)
						return
					}
					if !bytes.Equal(body, arg[:]) {
						t.Errorf("sender %d: reply %x for request %x", s, body, arg)
						return
					}
				} else {
					if err := pc.sendOneway("obj", "note", arg[:]); err != nil {
						t.Errorf("sender %d oneway %d: %v", s, i, err)
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()

	// The connection is FIFO: once a final round trip completes, every
	// earlier frame has been read by the peer.
	var fin [8]byte
	binary.BigEndian.PutUint32(fin[:4], ^uint32(0))
	if _, _, err := pc.roundTrip(context.Background(), "obj", "echo", fin[:], 0); err != nil {
		t.Fatal(err)
	}

	lastSeq := make(map[uint32]int)
	received := 0
drain:
	for {
		select {
		case r := <-recCh:
			received++
			if last, ok := lastSeq[r.sender]; ok && int(r.seq) <= last {
				t.Fatalf("sender %d frames reordered: seq %d after %d", r.sender, r.seq, last)
			}
			lastSeq[r.sender] = int(r.seq)
		default:
			break drain
		}
	}
	wantOneways := senders * perSender * 2 / 3
	if received != wantOneways {
		t.Errorf("peer saw %d oneway frames, want %d", received, wantOneways)
	}
	if got := stats.oneways.Load(); got != uint64(wantOneways) {
		t.Errorf("stats.oneways = %d, want %d", got, wantOneways)
	}
	if got := stats.writes.Load(); got == 0 {
		t.Error("stats.writes never incremented")
	}
}
