package wire

// Descriptor interning: the ORB protocol's answer to gob re-shipping type
// descriptors on every message.
//
// A gob-encoded value is a self-contained stream: zero or more type-
// descriptor segments followed by exactly one value segment. The
// descriptor segments depend only on the Go type, so on a long-lived
// connection they are pure repetition — for the small control messages
// that dominate DISCOVER's inter-server traffic they are most of the
// bytes. The protocol splits each encoded value at the descriptor/value boundary:
// the first value of a given descriptor prefix travels whole and defines
// a varint id for the prefix (DEF); every later value with the same
// prefix travels as the id plus the value segment alone (REF), and the
// receiver re-prepends the remembered prefix before decoding. The
// "handshake" is therefore implicit and pipelined: a DEF is the
// negotiation, ordered before any REF that uses it by the connection's
// write discipline.
//
// Splitting requires walking gob's low-level message framing (byte count,
// then a signed type id — negative ids introduce descriptors, the single
// positive id introduces the value). Nothing inside segments is parsed,
// and a payload that does not split cleanly simply travels raw, whole and
// self-describing, rather than failing.

import (
	"errors"
	"fmt"
)

// MaxInternEntries bounds either direction's descriptor table on one
// connection. Beyond the cap, payloads travel raw (sender side) and
// further DEFs are a protocol error (receiver side).
const MaxInternEntries = 1024

// maxGobSegments bounds the descriptor walk; a legitimate type needs one
// segment per distinct component type, so this is generous.
const maxGobSegments = 256

var (
	// ErrInternID is returned for a DEF that reuses or skips an id, or a
	// REF to an id never defined.
	ErrInternID = errors.New("wire: descriptor id out of sequence")
	errGobSplit = errors.New("wire: unsplittable gob stream")
)

// gobUint decodes gob's low-level unsigned integer encoding (NOT the
// protobuf-style varint used elsewhere in this package): a byte below
// 0x80 is the value; otherwise the byte is the negated count of
// big-endian value bytes that follow.
func gobUint(b []byte) (v uint64, n int, err error) {
	if len(b) == 0 {
		return 0, 0, errGobSplit
	}
	c := b[0]
	if c <= 0x7f {
		return uint64(c), 1, nil
	}
	nb := -int(int8(c))
	if nb <= 0 || nb > 8 || len(b) < 1+nb {
		return 0, 0, errGobSplit
	}
	for i := 0; i < nb; i++ {
		v = v<<8 | uint64(b[1+i])
	}
	return v, 1 + nb, nil
}

// gobInt decodes gob's signed integer encoding: the unsigned form with
// the sign in the low bit.
func gobInt(b []byte) (int64, int, error) {
	u, n, err := gobUint(b)
	if err != nil {
		return 0, 0, err
	}
	if u&1 != 0 {
		return ^int64(u >> 1), n, nil
	}
	return int64(u >> 1), n, nil
}

// SplitGobValue locates the descriptor/value boundary of one gob-encoded
// value: it returns the length of the type-descriptor prefix, which may
// be zero for predefined types. It fails on anything that is not exactly
// descriptor segments followed by one value segment — the caller then
// sends the payload raw.
func SplitGobValue(full []byte) (descLen int, err error) {
	off := 0
	for seg := 0; seg < maxGobSegments; seg++ {
		cnt, n, err := gobUint(full[off:])
		if err != nil {
			return 0, err
		}
		if cnt == 0 || cnt > uint64(len(full)-off-n) {
			return 0, errGobSplit
		}
		segStart := off + n
		id, _, err := gobInt(full[segStart:])
		if err != nil {
			return 0, err
		}
		segEnd := segStart + int(cnt)
		if id > 0 {
			// The value segment: it must be the last bytes of the stream.
			if segEnd != len(full) {
				return 0, errGobSplit
			}
			return off, nil
		}
		if id == 0 {
			return 0, errGobSplit
		}
		off = segEnd
	}
	return 0, errGobSplit
}

// gobInterfaceID is the type id gob predefines for interface values.
const gobInterfaceID = 8

// wireTypeLayouts gives, for each field of gob's wireType in declaration
// order (ArrayT, SliceT, StructT, MapT, GobEncoderT, BinaryMarshalerT,
// TextMarshalerT), the fields of the struct it points to, one byte each:
// c CommonType, t type id, n int, f []fieldType.
var wireTypeLayouts = [...]string{"ctn", "ct", "cf", "ctt", "c", "c", "c"}

// StaticGobPrefix reports whether a descriptor prefix (the bytes
// SplitGobValue measures) names no interface type. Only an interface
// value can carry type definitions inside a value segment, so a gob
// decoder that has read a static prefix learns nothing more from the
// value segments decoded against it, and an encoder that has sent it
// writes each later value of that type exactly as a new encoder writes
// its value segment. Anything that does not parse as descriptor
// segments reports false.
func StaticGobPrefix(prefix []byte) bool {
	r := gobReader{b: prefix}
	for len(r.b) > 0 {
		cnt := r.uint()
		if r.bad || cnt > uint64(len(r.b)) {
			return false
		}
		seg := gobReader{b: r.b[:cnt]}
		r.b = r.b[cnt:]
		if seg.int() >= 0 || seg.bad {
			return false
		}
		wireType := seg.fields(func(i int) bool {
			return i < len(wireTypeLayouts) && seg.static(wireTypeLayouts[i])
		})
		if !wireType || len(seg.b) != 0 {
			return false
		}
	}
	return true
}

// gobReader walks gob's low-level encoding; any malformed read sets bad
// and yields zero.
type gobReader struct {
	b   []byte
	bad bool
}

func (r *gobReader) uint() uint64 {
	v, n, err := gobUint(r.b)
	if err != nil {
		r.bad = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *gobReader) int() int64 {
	v, n, err := gobInt(r.b)
	if err != nil {
		r.bad = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

// fields walks one struct encoding — field-number deltas, each followed
// by its field, up to the zero terminator — handing each field number to
// field, and reports whether every field was accepted.
func (r *gobReader) fields(field func(i int) bool) bool {
	i := -1
	for {
		d := r.uint()
		switch {
		case r.bad || d > uint64(len(wireTypeLayouts)):
			return false
		case d == 0:
			return true
		}
		i += int(d)
		if !field(i) {
			return false
		}
	}
}

// static walks one struct with the given layout and reports whether it
// is well formed and none of its type ids is the interface type.
func (r *gobReader) static(layout string) bool {
	return r.fields(func(i int) bool {
		if i >= len(layout) {
			return false
		}
		switch layout[i] {
		case 'c':
			return r.static("sn") // CommonType{Name, Id}
		case 's':
			if n := r.uint(); n > uint64(len(r.b)) {
				r.bad = true
			} else {
				r.b = r.b[n:]
			}
		case 'n':
			r.int()
		case 't':
			if r.int() == gobInterfaceID {
				return false
			}
		case 'f':
			for n := r.uint(); n > 0 && !r.bad; n-- {
				if !r.static("st") { // fieldType{Name, Id}
					return false
				}
			}
		}
		return !r.bad
	})
}

// InternTable is the sender half of descriptor interning: it maps
// descriptor prefixes to the ids this connection has assigned. One table
// per connection and direction, guarded by the sender's write lock.
type InternTable struct {
	ids  map[string]uint64
	next uint64
}

// NewInternTable returns an empty sender table.
func NewInternTable() *InternTable {
	return &InternTable{ids: make(map[string]uint64)}
}

// Intern classifies one gob-encoded value. ok=false means the payload
// does not participate (unsplittable, descriptor-free, or table full) and
// must travel raw. Otherwise id is the prefix's id and def reports
// whether this use defines it — the defining payload travels whole,
// later ones from descLen on.
func (t *InternTable) Intern(full []byte) (id uint64, descLen int, def, ok bool) {
	descLen, err := SplitGobValue(full)
	if err != nil || descLen == 0 {
		return 0, 0, false, false
	}
	if id, hit := t.ids[string(full[:descLen])]; hit {
		return id, descLen, false, true
	}
	if t.next >= MaxInternEntries {
		return 0, 0, false, false
	}
	t.next++
	t.ids[string(full[:descLen])] = t.next
	return t.next, descLen, true, true
}

// InternDefs is the receiver half: the descriptor prefixes a peer has
// defined, by id. One per connection and direction, touched only by the
// connection's read loop.
type InternDefs struct {
	prefixes map[uint64][]byte
}

// NewInternDefs returns an empty receiver table.
func NewInternDefs() *InternDefs {
	return &InternDefs{prefixes: make(map[uint64][]byte)}
}

// Define records the descriptor prefix of a DEF payload. Ids must arrive
// in sequence (1, 2, ...), each exactly once; full is split locally so a
// corrupted definition is caught here rather than at first use.
func (d *InternDefs) Define(id uint64, full []byte) error {
	if id != uint64(len(d.prefixes))+1 || id > MaxInternEntries {
		return ErrInternID
	}
	descLen, err := SplitGobValue(full)
	if err != nil || descLen == 0 {
		return fmt.Errorf("wire: descriptor definition %d: %w", id, errGobSplit)
	}
	prefix := make([]byte, descLen)
	copy(prefix, full[:descLen])
	d.prefixes[id] = prefix
	return nil
}

// Resolve returns the remembered prefix for id.
func (d *InternDefs) Resolve(id uint64) ([]byte, bool) {
	p, ok := d.prefixes[id]
	return p, ok
}
