package orb

// Frame payloads: what travels inside REQUEST, REPLY, END and CREDIT
// frames. The frame layer (header grammar, chunking constants,
// compression, descriptor splitting) lives in internal/wire; WIRE.md is
// the normative spec of both.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"discover/internal/wire"
)

// ObjRef locates an object: the ORB endpoint that hosts it and its object
// key. It is the analogue of a CORBA interoperable object reference.
type ObjRef struct {
	Addr string // host:port of the hosting ORB
	Key  string // object key within that ORB
}

// IsZero reports whether the reference is unset.
func (r ObjRef) IsZero() bool { return r.Addr == "" && r.Key == "" }

// String renders the reference like an IOR-ish URL.
func (r ObjRef) String() string { return "orb://" + r.Addr + "/" + r.Key }

// Reply statuses.
const (
	replyOK        = 0 // body is the gob-encoded result
	replyUserError = 1 // body is a gob-encoded RemoteError raised by the servant
	replySysError  = 2 // body is a gob-encoded RemoteError raised by the ORB
)

// System error codes, mirroring the CORBA system exceptions DISCOVER
// would observe.
const (
	CodeNoServant   = "OBJECT_NOT_EXIST"
	CodeNoMethod    = "BAD_OPERATION"
	CodeMarshal     = "MARSHAL"
	CodeComm        = "COMM_FAILURE"
	CodeApplication = "APPLICATION" // user-raised
)

// RemoteError is an error raised on the remote side of an invocation.
type RemoteError struct {
	Code string
	Msg  string
}

// Error implements error.
func (e *RemoteError) Error() string { return fmt.Sprintf("orb: %s: %s", e.Code, e.Msg) }

// IsRemote reports whether err is a RemoteError with the given code.
func IsRemote(err error, code string) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Code == code
}

// IsPeerFailure classifies an invocation error as retryable peer failure
// versus application-level fault: COMM_FAILURE and invocation deadline
// expiry mean the peer is unreachable or unresponsive, while any error a
// live servant raised (BAD_OPERATION, APPLICATION, policy denials, ...)
// proves the peer is up. Failure detectors key off this split; a caller-
// cancelled context is deliberately not a peer failure.
func IsPeerFailure(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	return IsRemote(err, CodeComm)
}

// request is the wire form of one invocation.
type request struct {
	id     uint64
	key    string
	method string
	args   []byte
	oneway bool
	trace  uint64 // sampled-request trace id; 0 = untraced (no trailer)
}

// reply is the wire form of one invocation result.
type reply struct {
	id           uint64
	status       uint8
	body         []byte
	trace        uint64 // echoed trace id; 0 = untraced (no trailer)
	servantNanos uint64 // dispatch time at the servant, when trace != 0
}

func appendUv(dst []byte, v uint64) []byte {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], v)
	return append(dst, b[:n]...)
}

func appendStr(dst []byte, s string) []byte {
	return append(appendUv(dst, uint64(len(s))), s...)
}

func appendBlob(dst []byte, p []byte) []byte {
	return append(appendUv(dst, uint64(len(p))), p...)
}

var errBadFrame = errors.New("orb: malformed protocol frame")

type frameReader struct {
	src []byte
	off int
}

func (r *frameReader) u8() (byte, error) {
	if r.off >= len(r.src) {
		return 0, errBadFrame
	}
	b := r.src[r.off]
	r.off++
	return b, nil
}

// uv reads one uvarint from the frame.
func (r *frameReader) uv() (uint64, error) {
	v, sz := binary.Uvarint(r.src[r.off:])
	if sz <= 0 {
		return 0, errBadFrame
	}
	r.off += sz
	return v, nil
}

func (r *frameReader) str() (string, error) {
	n, sz := binary.Uvarint(r.src[r.off:])
	if sz <= 0 || r.off+sz+int(n) > len(r.src) || n > 1<<20 {
		return "", errBadFrame
	}
	r.off += sz
	s := string(r.src[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func (r *frameReader) blob() ([]byte, error) {
	n, sz := binary.Uvarint(r.src[r.off:])
	if sz <= 0 || r.off+sz+int(n) > len(r.src) || n > 1<<26 {
		return nil, errBadFrame
	}
	r.off += sz
	b := make([]byte, n)
	copy(b, r.src[r.off:r.off+int(n)])
	r.off += int(n)
	return b, nil
}

// wireMagic is the connection preface: the four bytes a client writes on
// every new ORB connection ahead of its first frame. A server that reads
// anything else closes the connection before dispatching, so a peer
// speaking some other protocol sees COMM_FAILURE.
const wireMagic = "DWP2"

// Target encodings: the leading byte of a REQUEST payload. Like
// descriptor interning, (key, method) pairs are defined once per
// connection and referenced by id thereafter — for the steady federation
// traffic this replaces two length-prefixed strings with one or two
// bytes per request.
const (
	targetRef = 0x00 // uvarint id of a previously defined target
	targetDef = 0x01 // uvarint id, then key and method strings

	maxTargetEntries = 4096
)

// Blob encodings: the tag that precedes args (REQUEST) and body
// (single-frame REPLY) blobs. Chunked bodies are always raw — a DEF whose
// bytes were spread across interleaved chunks could be referenced before
// it completes, so interning applies only to payloads written whole under
// the connection's write lock.
const (
	blobRaw = 0x00 // varint length, then a self-describing gob stream
	blobDef = 0x01 // uvarint id, varint length, full gob stream defining the id
	blobRef = 0x02 // uvarint id, varint length, value segment only
)

// targetTable is the sender half of target interning, guarded by the
// connection's write lock. The two-level map keeps the hot lookup
// allocation-free.
type targetTable struct {
	ids  map[string]map[string]uint64 // key -> method -> id
	next uint64
}

func newTargetTable() *targetTable {
	return &targetTable{ids: make(map[string]map[string]uint64)}
}

// appendTarget appends the target encoding for (key, method), defining a
// new id when the pair is first seen and the table has room.
func (t *targetTable) appendTarget(buf []byte, key, method string) []byte {
	if methods := t.ids[key]; methods != nil {
		if id, ok := methods[method]; ok {
			buf = append(buf, targetRef)
			return appendUv(buf, id)
		}
	}
	if t.next >= maxTargetEntries {
		// Table full: send an inline definition with id 0, which receivers
		// treat as "do not remember".
		buf = append(buf, targetDef)
		buf = appendUv(buf, 0)
		buf = appendStr(buf, key)
		return appendStr(buf, method)
	}
	t.next++
	methods := t.ids[key]
	if methods == nil {
		methods = make(map[string]uint64)
		t.ids[key] = methods
	}
	methods[method] = t.next
	buf = append(buf, targetDef)
	buf = appendUv(buf, t.next)
	buf = appendStr(buf, key)
	return appendStr(buf, method)
}

// targetDefs is the receiver half, touched only by the connection's read
// loop.
type targetDefs struct {
	byID map[uint64][2]string // id -> {key, method}
}

func newTargetDefs() *targetDefs {
	return &targetDefs{byID: make(map[uint64][2]string)}
}

// readTarget consumes a target encoding and returns the key and method.
func (t *targetDefs) readTarget(r *frameReader) (key, method string, err error) {
	tag, err := r.u8()
	if err != nil {
		return "", "", err
	}
	switch tag {
	case targetRef:
		id, err := r.uv()
		if err != nil {
			return "", "", err
		}
		km, ok := t.byID[id]
		if !ok {
			return "", "", errBadFrame
		}
		return km[0], km[1], nil
	case targetDef:
		id, err := r.uv()
		if err != nil {
			return "", "", err
		}
		if key, err = r.str(); err != nil {
			return "", "", err
		}
		if method, err = r.str(); err != nil {
			return "", "", err
		}
		if id != 0 {
			if id != uint64(len(t.byID))+1 || id > maxTargetEntries {
				return "", "", errBadFrame
			}
			t.byID[id] = [2]string{key, method}
		}
		return key, method, nil
	default:
		return "", "", errBadFrame
	}
}

// appendV2Blob appends a tagged blob, interning its descriptor prefix
// through it (guarded by the connection's write lock). defs/hits are
// incremented on the stats block for the wire counters.
func appendV2Blob(buf []byte, it *wire.InternTable, stats *orbStats, full []byte) []byte {
	id, descLen, def, ok := it.Intern(full)
	switch {
	case !ok:
		buf = append(buf, blobRaw)
		return appendBlob(buf, full)
	case def:
		stats.internDefs.Add(1)
		buf = append(buf, blobDef)
		buf = appendUv(buf, id)
		return appendBlob(buf, full)
	default:
		stats.internHits.Add(1)
		buf = append(buf, blobRef)
		buf = appendUv(buf, id)
		return appendBlob(buf, full[descLen:])
	}
}

// readV2Blob consumes a tagged blob and returns a complete gob stream —
// for a REF, the remembered descriptor prefix is re-joined with the
// value bytes.
func readV2Blob(r *frameReader, defs *wire.InternDefs) ([]byte, error) {
	tag, err := r.u8()
	if err != nil {
		return nil, err
	}
	switch tag {
	case blobRaw:
		return r.blob()
	case blobDef:
		id, err := r.uv()
		if err != nil {
			return nil, err
		}
		full, err := r.blob()
		if err != nil {
			return nil, err
		}
		if err := defs.Define(id, full); err != nil {
			return nil, errBadFrame
		}
		return full, nil
	case blobRef:
		id, err := r.uv()
		if err != nil {
			return nil, err
		}
		value, err := r.blob()
		if err != nil {
			return nil, err
		}
		prefix, ok := defs.Resolve(id)
		if !ok {
			return nil, errBadFrame
		}
		joined := make([]byte, 0, len(prefix)+len(value))
		joined = append(joined, prefix...)
		return append(joined, value...), nil
	default:
		return nil, errBadFrame
	}
}

// appendRequestV2 appends a v2 REQUEST payload: target, tagged args blob,
// optional trace trailer.
func appendRequestV2(buf []byte, tt *targetTable, it *wire.InternTable, stats *orbStats, rq *request) []byte {
	buf = tt.appendTarget(buf, rq.key, rq.method)
	buf = appendV2Blob(buf, it, stats, rq.args)
	return wire.AppendTraceMeta(buf, wire.TraceMeta{Trace: rq.trace})
}

// decodeRequestV2 parses a v2 REQUEST payload. The stream id from the
// frame header is the request id.
func decodeRequestV2(p []byte, stream uint64, oneway bool, td *targetDefs, defs *wire.InternDefs) (*request, error) {
	r := &frameReader{src: p}
	rq := &request{id: stream, oneway: oneway}
	var err error
	if rq.key, rq.method, err = td.readTarget(r); err != nil {
		return nil, err
	}
	if rq.args, err = readV2Blob(r, defs); err != nil {
		return nil, err
	}
	if m, ok := wire.ParseTraceMeta(p[r.off:]); ok {
		rq.trace = m.Trace
	}
	return rq, nil
}

// appendReplyV2 appends a single-frame v2 REPLY payload: status, tagged
// body blob, optional trace trailer.
func appendReplyV2(buf []byte, it *wire.InternTable, stats *orbStats, rp *reply) []byte {
	buf = append(buf, rp.status)
	buf = appendV2Blob(buf, it, stats, rp.body)
	return wire.AppendTraceMeta(buf, wire.TraceMeta{Trace: rp.trace, ServantNanos: rp.servantNanos})
}

// decodeReplyV2 parses a single-frame v2 REPLY payload.
func decodeReplyV2(p []byte, stream uint64, defs *wire.InternDefs) (*reply, error) {
	r := &frameReader{src: p}
	rp := &reply{id: stream}
	st, err := r.u8()
	if err != nil {
		return nil, err
	}
	rp.status = st
	if rp.body, err = readV2Blob(r, defs); err != nil {
		return nil, err
	}
	if m, ok := wire.ParseTraceMeta(p[r.off:]); ok {
		rp.trace = m.Trace
		rp.servantNanos = m.ServantNanos
	}
	return rp, nil
}

// appendEndV2 appends an END payload: the status of a chunked reply whose
// body already travelled as raw CHUNK frames, plus the trace trailer.
func appendEndV2(buf []byte, rp *reply) []byte {
	buf = append(buf, rp.status)
	return wire.AppendTraceMeta(buf, wire.TraceMeta{Trace: rp.trace, ServantNanos: rp.servantNanos})
}

// decodeEndV2 parses an END payload into the reply carrying the
// reassembled body.
func decodeEndV2(p []byte, stream uint64, body []byte) (*reply, error) {
	r := &frameReader{src: p}
	rp := &reply{id: stream, body: body}
	st, err := r.u8()
	if err != nil {
		return nil, err
	}
	rp.status = st
	if m, ok := wire.ParseTraceMeta(p[r.off:]); ok {
		rp.trace = m.Trace
		rp.servantNanos = m.ServantNanos
	}
	return rp, nil
}

// bulkKey marks a context as a bulk exchange.
type bulkKey struct{}

// WithBulk marks ctx as a bulk exchange: the request is flagged
// V2FlagBulk, and both the request args and the reply may be
// flate-compressed. Bulk is strictly opt-in so latency-sensitive small-message paths (relay
// batching in particular) never pay compression costs.
func WithBulk(ctx context.Context) context.Context {
	return context.WithValue(ctx, bulkKey{}, true)
}

// IsBulk reports whether ctx was marked by WithBulk.
func IsBulk(ctx context.Context) bool {
	b, _ := ctx.Value(bulkKey{}).(bool)
	return b
}
