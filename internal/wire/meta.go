package wire

import "encoding/binary"

// TraceMeta is the optional trailing metadata block a frame may carry
// after its fixed fields: the sampled-request trace id and, on replies,
// the remote servant's dispatch time.
//
// The block rides as a *trailer* after a payload's fixed fields, and only
// on sampled requests: an untraced request carries no trailer and costs
// nothing. A servant echoes trace metadata only when the request carried
// it.
type TraceMeta struct {
	Trace        uint64 // trace id; 0 means "no metadata"
	ServantNanos uint64 // remote dispatch time, replies only
}

const (
	traceMetaMagic   = "DTRC"
	traceMetaVersion = 1
	traceMetaLen     = 4 + 1 + 8 + 8 // magic + version + trace + servant nanos
)

// AppendTraceMeta appends the trailer to a frame payload being assembled
// in dst and returns the extended slice. A zero trace id appends nothing.
func AppendTraceMeta(dst []byte, m TraceMeta) []byte {
	if m.Trace == 0 {
		return dst
	}
	dst = append(dst, traceMetaMagic...)
	dst = append(dst, traceMetaVersion)
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], m.Trace)
	binary.BigEndian.PutUint64(b[8:], m.ServantNanos)
	return append(dst, b[:]...)
}

// ParseTraceMeta reads a trailer from rest, the unparsed bytes that remain
// after a frame's fixed fields. ok is false when no (or an unrecognized)
// trailer is present.
func ParseTraceMeta(rest []byte) (TraceMeta, bool) {
	if len(rest) < traceMetaLen ||
		string(rest[:4]) != traceMetaMagic || rest[4] != traceMetaVersion {
		return TraceMeta{}, false
	}
	return TraceMeta{
		Trace:        binary.BigEndian.Uint64(rest[5:13]),
		ServantNanos: binary.BigEndian.Uint64(rest[13:21]),
	}, true
}
