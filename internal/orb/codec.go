package orb

// Argument codec: gob with its per-type work done once per process.
//
// A new gob.Encoder sends every type descriptor again and a new
// gob.Decoder compiles its decode engines again, so encoding each
// argument and result with a fresh one repeats that work on every
// invocation. Marshal and Unmarshal instead keep idle encoders and
// decoders that have already handled a type and reuse them for the
// value segment alone (wire.SplitGobValue's split), with the same bytes
// on the wire: a cached Marshal returns exactly what a new encoder
// writes, and a cached Unmarshal decodes exactly what a new decoder
// would. Reuse is safe only for static descriptor prefixes
// (wire.StaticGobPrefix) and non-interface top-level types, where no
// value can carry type definitions of its own; everything else, and
// everything past the caps below, takes a new encoder or decoder as
// before.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"

	"discover/internal/wire"
)

// Codec cache bounds. Keys are never evicted: once codecMaxKeys are in
// use, values of any further type or descriptor prefix take the uncached
// path, so a peer sending many distinct descriptors costs CPU, not
// memory.
const (
	codecMaxKeys   = 256      // Go types (encoders) or descriptor prefixes (decoders)
	codecMaxPrefix = 4 << 10  // longest descriptor prefix a cached engine may carry
	codecMaxIdle   = 4        // idle engines kept per key
	codecMaxValue  = 16 << 10 // an engine that last handled a longer value is dropped
)

// primedEnc is an encoder that has sent the descriptors of typ, which
// are kept in prefix.
type primedEnc struct {
	typ    reflect.Type
	prefix []byte
	buf    bytes.Buffer
	enc    *gob.Encoder
}

// primedDec is a decoder that has read the descriptor prefix key.
type primedDec struct {
	key string
	r   bytes.Reader
	dec *gob.Decoder
}

var encoders = struct {
	sync.Mutex
	idle map[reflect.Type][]*primedEnc
}{idle: make(map[reflect.Type][]*primedEnc)}

var decoders = struct {
	sync.Mutex
	idle map[string][]*primedDec
}{idle: make(map[string][]*primedDec)}

// Marshal gob-encodes an invocation argument or result.
func Marshal(v any) ([]byte, error) {
	t := reflect.TypeOf(v)
	if e := getEncoder(t); e != nil {
		e.buf.Reset()
		if err := e.enc.Encode(v); err == nil {
			value := e.buf.Bytes()
			// A static type's value never carries descriptors; if gob
			// ever writes one, a new encoder's output could differ.
			if n, err := wire.SplitGobValue(value); err == nil && n == 0 {
				out := make([]byte, 0, len(e.prefix)+len(value))
				out = append(append(out, e.prefix...), value...)
				if len(value) <= codecMaxValue {
					putEncoder(e)
				}
				return out, nil
			}
		}
		// Dropped: the new encoder below decides the result.
	}
	e := &primedEnc{typ: t}
	e.enc = gob.NewEncoder(&e.buf)
	if err := e.enc.Encode(v); err != nil {
		return nil, fmt.Errorf("orb: marshal: %w", err)
	}
	full := e.buf.Bytes()
	e.buf = bytes.Buffer{} // full now belongs to the caller
	if n, err := wire.SplitGobValue(full); err == nil && n <= codecMaxPrefix && len(full)-n <= codecMaxValue &&
		concrete(t) && wire.StaticGobPrefix(full[:n]) {
		e.prefix = bytes.Clone(full[:n])
		putEncoder(e)
	}
	return full, nil
}

// Unmarshal gob-decodes an invocation argument or result.
func Unmarshal(p []byte, v any) error {
	if err := unmarshal(p, v); err != nil {
		return fmt.Errorf("orb: unmarshal: %w", err)
	}
	return nil
}

func unmarshal(p []byte, v any) error {
	n, err := wire.SplitGobValue(p)
	if err != nil || n > codecMaxPrefix || len(p)-n > codecMaxValue || !concrete(reflect.TypeOf(v)) {
		return gob.NewDecoder(bytes.NewReader(p)).Decode(v)
	}
	if d := getDecoder(p[:n]); d != nil {
		d.r.Reset(p[n:])
		err := d.dec.Decode(v)
		d.r.Reset(nil)
		if err == nil {
			putDecoder(d)
		}
		return err
	}
	d := &primedDec{}
	d.r.Reset(p)
	d.dec = gob.NewDecoder(&d.r)
	if err := d.dec.Decode(v); err != nil {
		return err
	}
	d.r.Reset(nil)
	if wire.StaticGobPrefix(p[:n]) {
		d.key = string(p[:n])
		putDecoder(d)
	}
	return nil
}

// concrete reports whether t, pointers aside, is a type other than an
// interface: gob encodes a top-level interface value with type
// definitions that depend on the value, so only concrete types are
// cached.
func concrete(t reflect.Type) bool {
	for t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t != nil && t.Kind() != reflect.Interface
}

func getEncoder(t reflect.Type) *primedEnc {
	encoders.Lock()
	defer encoders.Unlock()
	idle := encoders.idle[t]
	if len(idle) == 0 {
		return nil
	}
	e := idle[len(idle)-1]
	encoders.idle[t] = idle[:len(idle)-1]
	return e
}

func putEncoder(e *primedEnc) {
	encoders.Lock()
	defer encoders.Unlock()
	idle, ok := encoders.idle[e.typ]
	if (ok || len(encoders.idle) < codecMaxKeys) && len(idle) < codecMaxIdle {
		encoders.idle[e.typ] = append(idle, e)
	}
}

func getDecoder(prefix []byte) *primedDec {
	decoders.Lock()
	defer decoders.Unlock()
	idle := decoders.idle[string(prefix)]
	if len(idle) == 0 {
		return nil
	}
	d := idle[len(idle)-1]
	decoders.idle[d.key] = idle[:len(idle)-1]
	return d
}

func putDecoder(d *primedDec) {
	decoders.Lock()
	defer decoders.Unlock()
	idle, ok := decoders.idle[d.key]
	if (ok || len(decoders.idle) < codecMaxKeys) && len(idle) < codecMaxIdle {
		decoders.idle[d.key] = append(idle, d)
	}
}
