package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Codec limits. They bound what a single message may carry
// so that a corrupt or hostile frame cannot force huge allocations.
const (
	MaxStringLen = 1 << 20 // 1 MiB per string field
	MaxParams    = 1 << 16 // 65536 parameters
	MaxDataLen   = 1 << 24 // 16 MiB payload
)

var (
	// ErrTooLarge is returned when a field exceeds the codec limits.
	ErrTooLarge = errors.New("wire: field exceeds size limit")
	// ErrTruncated is returned when a frame ends mid-field.
	ErrTruncated = errors.New("wire: truncated message")
	// ErrTrailing is returned when bytes remain after a full message.
	ErrTrailing = errors.New("wire: trailing bytes after message")
)

// ---------------------------------------------------------------------------
// BinaryCodec: the compact, hand-rolled encoding ("custom TCP protocol").
// ---------------------------------------------------------------------------

// BinaryCodec is a compact deterministic encoding. Layout:
//
//	kind     uint8
//	status   varint (zig-zag)
//	seq      uvarint
//	app      string
//	client   string
//	op       string
//	text     string
//	nparams  uvarint, then nparams * (key string, value string)
//	data     bytes
//
// where string and bytes are uvarint length followed by raw bytes.
type BinaryCodec struct{}

func appendUvarint(dst []byte, v uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	return append(dst, buf[:n]...)
}

func appendVarint(dst []byte, v int64) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	return append(dst, buf[:n]...)
}

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBytes(dst []byte, b []byte) []byte {
	dst = appendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// Encode appends the encoding of m to dst and returns the extended slice.
func (BinaryCodec) Encode(dst []byte, m *Message) ([]byte, error) {
	if err := checkLimits(m); err != nil {
		return dst, err
	}
	dst = append(dst, byte(m.Kind))
	dst = appendVarint(dst, int64(m.Status))
	dst = appendUvarint(dst, m.Seq)
	dst = appendString(dst, m.App)
	dst = appendString(dst, m.Client)
	dst = appendString(dst, m.Op)
	dst = appendString(dst, m.Text)
	dst = appendUvarint(dst, uint64(len(m.Params)))
	for _, p := range m.Params {
		dst = appendString(dst, p.Key)
		dst = appendString(dst, p.Value)
	}
	dst = appendBytes(dst, m.Data)
	return dst, nil
}

func checkLimits(m *Message) error {
	if len(m.App) > MaxStringLen || len(m.Client) > MaxStringLen ||
		len(m.Op) > MaxStringLen || len(m.Text) > MaxStringLen {
		return ErrTooLarge
	}
	if len(m.Params) > MaxParams {
		return ErrTooLarge
	}
	for _, p := range m.Params {
		if len(p.Key) > MaxStringLen || len(p.Value) > MaxStringLen {
			return ErrTooLarge
		}
	}
	if len(m.Data) > MaxDataLen {
		return ErrTooLarge
	}
	return nil
}

type binReader struct {
	src []byte
	off int
	err error
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.src[r.off:])
	if n <= 0 {
		r.err = ErrTruncated
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.src[r.off:])
	if n <= 0 {
		r.err = ErrTruncated
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) str(limit int) string {
	if r.err != nil {
		return ""
	}
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(limit) {
		r.err = ErrTooLarge
		return ""
	}
	if r.off+int(n) > len(r.src) {
		r.err = ErrTruncated
		return ""
	}
	s := string(r.src[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *binReader) bytes(limit int) []byte {
	if r.err != nil {
		return nil
	}
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(limit) {
		r.err = ErrTooLarge
		return nil
	}
	if r.off+int(n) > len(r.src) {
		r.err = ErrTruncated
		return nil
	}
	if n == 0 {
		return nil
	}
	b := make([]byte, n)
	copy(b, r.src[r.off:r.off+int(n)])
	r.off += int(n)
	return b
}

// Decode parses one message from src, which must hold exactly one.
func (BinaryCodec) Decode(src []byte) (*Message, error) {
	if len(src) == 0 {
		return nil, ErrTruncated
	}
	r := &binReader{src: src}
	m := &Message{}
	m.Kind = Kind(src[0])
	r.off = 1
	status := r.varint()
	m.Seq = r.uvarint()
	m.App = r.str(MaxStringLen)
	m.Client = r.str(MaxStringLen)
	m.Op = r.str(MaxStringLen)
	m.Text = r.str(MaxStringLen)
	np := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if np > MaxParams {
		return nil, ErrTooLarge
	}
	if np > 0 {
		m.Params = make([]Param, 0, min(int(np), 64))
		for i := uint64(0); i < np; i++ {
			k := r.str(MaxStringLen)
			v := r.str(MaxStringLen)
			if r.err != nil {
				return nil, r.err
			}
			m.Params = append(m.Params, Param{Key: k, Value: v})
		}
	}
	m.Data = r.bytes(MaxDataLen)
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(src) {
		return nil, ErrTrailing
	}
	if status < math.MinInt32 || status > math.MaxInt32 {
		return nil, fmt.Errorf("wire: status %d out of range", status)
	}
	m.Status = int32(status)
	return m, nil
}
