package wire

// ORB protocol framing (version 2, preface "DWP2"): the varint-packed,
// multiplexed frame layer every ORB connection speaks after its 4-byte
// preface. WIRE.md is the normative specification; the constants and
// byte layouts here are cross-checked against its tables by
// scripts/wiredrift.
//
// A frame is
//
//	type(uint8) flags(uint8) stream(uvarint) length(uvarint) payload
//
// where stream identifies the request the frame belongs to (the request
// id) and length counts payload bytes. Headers cost 4-6 bytes for small
// frames and, because replies may be split into CHUNK frames, several
// streams can interleave on one connection.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// V2FrameType discriminates v2 frames. Values are part of the wire
// contract (see WIRE.md "v2 frame types"); renumbering is a protocol
// change.
type V2FrameType uint8

// v2 frame types.
const (
	V2FrameRequest V2FrameType = 0x01 // client -> server invocation
	V2FrameReply   V2FrameType = 0x02 // server -> client complete reply
	V2FrameChunk   V2FrameType = 0x03 // one slice of a streamed reply body
	V2FrameEnd     V2FrameType = 0x04 // final frame of a streamed reply
	V2FrameCredit  V2FrameType = 0x05 // receiver grants stream flow-control credit

	v2FrameSentinel V2FrameType = 0x06 // keep last
)

var v2FrameNames = map[V2FrameType]string{
	V2FrameRequest: "REQUEST",
	V2FrameReply:   "REPLY",
	V2FrameChunk:   "CHUNK",
	V2FrameEnd:     "END",
	V2FrameCredit:  "CREDIT",
}

// String returns the spec name of the frame type.
func (t V2FrameType) String() string {
	if s, ok := v2FrameNames[t]; ok {
		return s
	}
	return fmt.Sprintf("frame(0x%02x)", uint8(t))
}

// Valid reports whether t names a defined v2 frame type.
func (t V2FrameType) Valid() bool { return t >= V2FrameRequest && t < v2FrameSentinel }

// v2 frame flags. Receivers reject frames carrying undefined bits, so a
// future flag cannot be introduced silently.
const (
	V2FlagCompressed uint8 = 0x01 // payload is a compressed block (see CompressPayload)
	V2FlagOneway     uint8 = 0x02 // REQUEST only: no reply will be sent
	V2FlagBulk       uint8 = 0x04 // REQUEST only: bulk exchange, reply may compress

	v2FlagAll = V2FlagCompressed | V2FlagOneway | V2FlagBulk
)

// v2 sizing. MaxFrameSize bounds a single payload, as on the
// length-prefixed channels; the stream constants bound the multiplexing
// machinery.
const (
	// V2ChunkSize is the slice size for streamed reply bodies: a reply
	// body larger than this leaves the server as CHUNK frames so other
	// streams can interleave between the slices.
	V2ChunkSize = 64 << 10

	// V2StreamWindow is the per-stream flow-control window: the sender of
	// a chunked reply may have at most this many un-credited body bytes
	// in flight. The receiver grants credit (CREDIT frames) as chunks
	// arrive, so bulk throughput is bounded by window/RTT while small
	// replies keep finding gaps to interleave into.
	V2StreamWindow = 256 << 10

	// MaxStreamBody bounds one reassembled streamed body, mirroring the
	// per-frame bound.
	MaxStreamBody = MaxFrameSize

	// MaxConnStreamBudget bounds the total bytes a connection may hold
	// across all partially reassembled streams — the receive-side memory
	// budget. A peer that exceeds it is protocol-violating and dropped.
	MaxConnStreamBudget = 64 << 20
)

// ErrV2BadFrame is returned for a v2 header that is syntactically invalid:
// unknown frame type, undefined flag bits, or a malformed varint.
var ErrV2BadFrame = errors.New("wire: malformed v2 frame header")

// V2Header is the decoded fixed part of one v2 frame.
type V2Header struct {
	Type   V2FrameType
	Flags  uint8
	Stream uint64
	Length int // payload bytes that follow the header
}

// AppendV2Header appends the varint-packed header for a frame of
// payloadLen bytes on stream to dst and returns the extended slice.
func AppendV2Header(dst []byte, t V2FrameType, flags uint8, stream uint64, payloadLen int) []byte {
	dst = append(dst, byte(t), flags)
	dst = appendUvarint(dst, stream)
	return appendUvarint(dst, uint64(payloadLen))
}

// ParseV2Header decodes a v2 frame header from the start of src and
// returns it with the number of bytes consumed. It validates the frame
// type, the flag mask, and the length bound, so a frame accepted here can
// be sized and dispatched safely.
func ParseV2Header(src []byte) (V2Header, int, error) {
	if len(src) < 2 {
		return V2Header{}, 0, ErrTruncated
	}
	h := V2Header{Type: V2FrameType(src[0]), Flags: src[1]}
	if !h.Type.Valid() {
		return V2Header{}, 0, ErrV2BadFrame
	}
	if h.Flags&^v2FlagAll != 0 {
		return V2Header{}, 0, ErrV2BadFrame
	}
	off := 2
	stream, n := binary.Uvarint(src[off:])
	if n <= 0 {
		if n < 0 {
			return V2Header{}, 0, ErrV2BadFrame // oversized varint
		}
		return V2Header{}, 0, ErrTruncated
	}
	off += n
	length, n := binary.Uvarint(src[off:])
	if n <= 0 {
		if n < 0 {
			return V2Header{}, 0, ErrV2BadFrame
		}
		return V2Header{}, 0, ErrTruncated
	}
	off += n
	if length > MaxFrameSize {
		return V2Header{}, 0, ErrFrameTooLarge
	}
	h.Stream = stream
	h.Length = int(length)
	return h, off, nil
}

// ReadV2Frame reads one v2 frame from br, reusing buf for the payload
// when its capacity suffices (the same single-reader discipline as
// ReadFrameBuf: consume or copy the payload before the next call).
func ReadV2Frame(br *bufio.Reader, buf []byte) (V2Header, []byte, error) {
	var fixed [2]byte
	if _, err := io.ReadFull(br, fixed[:]); err != nil {
		return V2Header{}, nil, err
	}
	h := V2Header{Type: V2FrameType(fixed[0]), Flags: fixed[1]}
	if !h.Type.Valid() || h.Flags&^v2FlagAll != 0 {
		return V2Header{}, nil, ErrV2BadFrame
	}
	stream, err := binary.ReadUvarint(br)
	if err != nil {
		return V2Header{}, nil, badVarint(err)
	}
	length, err := binary.ReadUvarint(br)
	if err != nil {
		return V2Header{}, nil, badVarint(err)
	}
	if length > MaxFrameSize {
		return V2Header{}, nil, ErrFrameTooLarge
	}
	h.Stream = stream
	h.Length = int(length)
	var payload []byte
	if uint64(cap(buf)) >= length {
		payload = buf[:length]
	} else {
		payload = make([]byte, length)
	}
	if _, err := io.ReadFull(br, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return V2Header{}, nil, err
	}
	return h, payload, nil
}

// badVarint maps binary.ReadUvarint failures to this package's errors:
// overflow is a malformed frame, a short read is truncation.
func badVarint(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return err
	}
	return ErrV2BadFrame
}
