package experiments

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"discover/internal/netsim"
	"discover/internal/orb"
)

// RunW1 measures what the ORB's wire protocol buys, with raw ORB pairs
// over an accounted (and, for the last row, shaped) netsim link so every
// byte on the wire is attributable:
//
//   - small-message traffic: the paper's steering workload is thousands
//     of tiny control messages, where gob's per-message self-description
//     and the repeated (key, method) target dominate the payload. The
//     protocol interns both per connection, so its bytes on the wire,
//     framing included, must be at least 40% below the self-describing
//     gob payloads of the same calls alone.
//   - bulk compression: a WithBulk exchange flate-compresses a redundant
//     payload; plain invocations never pay for compression.
//   - head-of-line blocking: on a bandwidth-limited WAN link a protocol
//     that sends each reply as one frame makes a concurrent small call
//     wait out the whole bulk transfer. Chunked replies interleave, so the
//     small call's worst case is bounded by the in-flight flow-control
//     window: it must stay within half the time the link needs to
//     serialize the bulk reply.
//
// msgs sizes the small-message workload; blobBytes sizes the bulk
// payload (it should be several times wire.V2StreamWindow so the HOL row
// exercises flow control, not just chunking).
func RunW1(msgs, blobBytes int) (Result, error) {
	if msgs <= 0 {
		msgs = 2000
	}
	if blobBytes <= 0 {
		blobBytes = 1 << 20
	}
	res := Result{ID: "W1", Title: "ORB wire protocol: interned codec, compression, pipelining"}

	// --- Row 1: small-message bytes on the wire vs the gob payloads. ---
	leg, err := newW1Leg(nil)
	if err != nil {
		return res, err
	}
	ctx := context.Background()
	var gobBytes uint64
	for i := 0; i < msgs; i++ {
		in := w1Echo{Seq: i, Client: "client-7", Op: "set_param", Value: "source_freq"}
		var out w1Echo
		if err := leg.client.Invoke(ctx, leg.ref, "echo", in, &out); err != nil {
			leg.close()
			return res, err
		}
		for _, v := range []any{in, out} {
			p, err := orb.Marshal(v)
			if err != nil {
				leg.close()
				return res, err
			}
			gobBytes += uint64(len(p))
		}
	}
	wireSmall := leg.net.TotalWAN().Bytes
	leg.close()
	reduction := 1 - float64(wireSmall)/float64(gobBytes)
	res.Rows = append(res.Rows, Row{
		Name:  fmt.Sprintf("small-message bytes on the wire (%d invocations)", msgs),
		Paper: "interning targets and gob descriptors removes per-message self-description: >=40% fewer bytes than the gob payloads alone",
		Measured: fmt.Sprintf("gob payloads %d B vs wire %d B including preface and framing — %.1f%% reduction (%.1f vs %.1f B/call)",
			gobBytes, wireSmall, 100*reduction, float64(gobBytes)/float64(msgs), float64(wireSmall)/float64(msgs)),
		Pass: reduction >= 0.40,
	})

	// --- Row 2: bulk compression is opt-in and effective. ---
	if leg, err = newW1Leg(nil); err != nil {
		return res, err
	}
	blob := func(ctx context.Context, compressible bool) (uint64, error) {
		before := leg.net.TotalWAN().Bytes
		var out w1Blob
		err := leg.client.Invoke(ctx, leg.ref, "blob", w1BlobReq{N: blobBytes, Compressible: compressible}, &out)
		if err != nil {
			return 0, err
		}
		if len(out.Data) != blobBytes {
			return 0, fmt.Errorf("w1: blob returned %d bytes, want %d", len(out.Data), blobBytes)
		}
		return leg.net.TotalWAN().Bytes - before, nil
	}
	plainB, err := blob(ctx, true)
	if err != nil {
		leg.close()
		return res, err
	}
	bulkB, err := blob(orb.WithBulk(ctx), true)
	leg.close()
	if err != nil {
		return res, err
	}
	cratio := float64(bulkB) / float64(plainB)
	res.Rows = append(res.Rows, Row{
		Name:  fmt.Sprintf("bulk compression via WithBulk (%d B redundant payload)", blobBytes),
		Paper: "bulk exchanges opt into flate per frame; plain invocations ship raw",
		Measured: fmt.Sprintf("plain %d B vs WithBulk %d B — ratio %.2f",
			plainB, bulkB, cratio),
		Pass: bulkB < plainB && cratio <= 0.5,
	})

	// --- Row 3: head-of-line blocking on a shaped link. ---
	const bandwidth = 8 << 20 // bytes/s
	if leg, err = newW1Leg(func(t *netsim.Topology) {
		t.SetRTT("east", "west", 10*time.Millisecond)
		t.SetBandwidth("east", "west", bandwidth)
	}); err != nil {
		return res, err
	}
	worst, probes, err := leg.holWorst(blobBytes)
	leg.close()
	if err != nil {
		return res, err
	}
	// The floor any single-frame reply pays: the link serializing the
	// whole bulk reply before a small reply can follow it.
	reply, err := orb.Marshal(w1Blob{Data: make([]byte, blobBytes)})
	if err != nil {
		return res, err
	}
	baseline := time.Duration(float64(len(reply)) / bandwidth * float64(time.Second))
	res.Rows = append(res.Rows, Row{
		Name:  fmt.Sprintf("worst small-call latency during a concurrent %d B fetch (8 MB/s, 10 ms RTT)", blobBytes),
		Paper: "chunked replies interleave streams, so a bulk reply does not head-of-line-block small calls the way a single reply frame would",
		Measured: fmt.Sprintf("worst %s (%d probes) vs %s to serialize the %d B reply",
			worst.Round(time.Millisecond), probes, baseline.Round(time.Millisecond), len(reply)),
		Pass: probes > 0 && 2*worst <= baseline,
	})

	w1mu.Lock()
	w1last = &W1Snapshot{
		Msgs:                msgs,
		BlobBytes:           blobBytes,
		GobPayloadBytes:     gobBytes,
		WireSmallBytes:      wireSmall,
		SmallReductionPct:   100 * reduction,
		PlainBlobBytes:      plainB,
		BulkBlobBytes:       bulkB,
		CompressionRatio:    cratio,
		SerializeBaselineMS: float64(baseline) / float64(time.Millisecond),
		HolWorstMS:          float64(worst) / float64(time.Millisecond),
	}
	w1mu.Unlock()
	return res, nil
}

// holWorst fetches a blobBytes reply while hammering small calls on the
// same pooled connection, and reports the worst small-call latency and
// the number of small calls made.
func (l *w1Leg) holWorst(blobBytes int) (time.Duration, int, error) {
	ctx := context.Background()
	var warm w1Echo
	if err := l.client.Invoke(ctx, l.ref, "echo", w1Echo{Op: "warm"}, &warm); err != nil {
		return 0, 0, err
	}
	done := make(chan error, 1)
	go func() {
		var out w1Blob
		done <- l.client.Invoke(ctx, l.ref, "blob", w1BlobReq{N: blobBytes}, &out)
	}()
	// Give the bulk request a head start onto the wire.
	time.Sleep(5 * time.Millisecond)
	var worst time.Duration
	probes := 0
	var out w1Echo
	for {
		t0 := time.Now()
		if err := l.client.Invoke(ctx, l.ref, "echo", w1Echo{Op: "probe"}, &out); err != nil {
			return 0, 0, err
		}
		if lat := time.Since(t0); lat > worst {
			worst = lat
		}
		probes++
		select {
		case err := <-done:
			return worst, probes, err
		default:
		}
	}
}

// W1Snapshot is the compact BENCH_W1.json record of the last RunW1.
type W1Snapshot struct {
	Msgs                int     `json:"msgs"`
	BlobBytes           int     `json:"blobBytes"`
	GobPayloadBytes     uint64  `json:"gobPayloadBytes"`
	WireSmallBytes      uint64  `json:"wireSmallBytes"`
	SmallReductionPct   float64 `json:"smallReductionPct"`
	PlainBlobBytes      uint64  `json:"plainBlobBytes"`
	BulkBlobBytes       uint64  `json:"bulkBlobBytes"`
	CompressionRatio    float64 `json:"compressionRatio"`
	SerializeBaselineMS float64 `json:"serializeBaselineMs"`
	HolWorstMS          float64 `json:"holWorstMs"`
}

var (
	w1mu   sync.Mutex
	w1last *W1Snapshot
)

// W1LastSnapshot returns the compact record of the most recent RunW1 in
// this process (cmd/benchharness writes it to BENCH_W1.json).
func W1LastSnapshot() (W1Snapshot, bool) {
	w1mu.Lock()
	defer w1mu.Unlock()
	if w1last == nil {
		return W1Snapshot{}, false
	}
	return *w1last, true
}

// w1Echo is the small steering-sized control message for row 1.
type w1Echo struct {
	Seq    int
	Client string
	Op     string
	Value  string
}

// w1BlobReq asks the servant for an N-byte payload; Compressible selects
// a redundant fill (for the compression row) over a pattern flate cannot
// shrink meaningfully.
type w1BlobReq struct {
	N            int
	Compressible bool
}

type w1Blob struct{ Data []byte }

// w1Leg is one measured client/server ORB pair: server at east, client
// dialing from west, every byte between them accounted by netsim.
type w1Leg struct {
	net    *netsim.Network
	client *orb.ORB
	server *orb.ORB
	ref    orb.ObjRef
}

func (l *w1Leg) close() {
	l.client.Close()
	l.server.Close()
}

// newW1Leg builds a fresh pair per measurement so interning tables and
// pooled connections never leak between legs.
func newW1Leg(shape func(*netsim.Topology)) (*w1Leg, error) {
	topo := netsim.NewTopology()
	if shape != nil {
		shape(topo)
	}
	n := netsim.New(topo)
	srv := orb.New()
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		srv.Close()
		return nil, err
	}
	srv.Register("w1", orb.MethodMap{
		"echo": orb.Handler(func(e w1Echo) (w1Echo, error) { return e, nil }),
		"blob": orb.Handler(func(r w1BlobReq) (w1Blob, error) {
			data := make([]byte, r.N)
			if r.Compressible {
				copy(data, bytes.Repeat([]byte("steering update source_freq=0.30 "), r.N/33+1))
			} else {
				x := uint32(2463534242)
				for i := range data {
					x ^= x << 13
					x ^= x >> 17
					x ^= x << 5
					data[i] = byte(x)
				}
			}
			return w1Blob{Data: data}, nil
		}),
	})
	client := orb.New(orb.WithDialer(n.Dialer("west", "east")))
	return &w1Leg{net: n, client: client, server: srv, ref: srv.Ref("w1")}, nil
}
