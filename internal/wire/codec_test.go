package wire

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// randomMessage builds an arbitrary-but-valid message for property tests.
func randomMessage(r *rand.Rand) *Message {
	randStr := func(max int) string {
		n := r.Intn(max)
		b := make([]byte, n)
		r.Read(b)
		return string(b)
	}
	m := &Message{
		Kind:   Kind(1 + r.Intn(int(kindSentinel)-1)),
		App:    randStr(40),
		Client: randStr(20),
		Seq:    r.Uint64(),
		Op:     randStr(16),
		Status: int32(r.Uint32()),
		Text:   randStr(100),
	}
	np := r.Intn(8)
	for i := 0; i < np; i++ {
		m.Params = append(m.Params, Param{Key: randStr(12), Value: randStr(30)})
	}
	if r.Intn(2) == 0 {
		m.Data = make([]byte, r.Intn(256))
		r.Read(m.Data)
	}
	return m
}

// Message implements quick.Generator via this wrapper.
type quickMsg struct{ M *Message }

func (quickMsg) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(quickMsg{M: randomMessage(r)})
}

func TestBinaryRoundTripProperty(t *testing.T) {
	prop := func(q quickMsg) bool {
		enc, err := BinaryCodec{}.Encode(nil, q.M)
		if err != nil {
			t.Logf("encode error: %v", err)
			return false
		}
		dec, err := BinaryCodec{}.Decode(enc)
		if err != nil {
			t.Logf("decode error: %v", err)
			return false
		}
		return q.M.Equal(dec)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Errorf("round trip failed: %v", err)
	}
}

func TestBinaryEncodeDeterministic(t *testing.T) {
	m := NewCommand("app", "client", "op", Param{"a", "1"}, Param{"b", "2"})
	m.Data = []byte("payload")
	e1, err := BinaryCodec{}.Encode(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := BinaryCodec{}.Encode(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if string(e1) != string(e2) {
		t.Error("binary encoding not deterministic")
	}
}

func TestBinaryDecodeEmptyMessage(t *testing.T) {
	m := &Message{Kind: KindBye}
	enc, err := BinaryCodec{}.Encode(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := BinaryCodec{}.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(dec) {
		t.Errorf("empty message round trip: got %v", dec)
	}
	if dec.Params != nil || dec.Data != nil {
		t.Error("empty slices should decode as nil")
	}
}

func TestBinaryDecodeTruncated(t *testing.T) {
	m := NewCommand("application-id", "client-id", "setParam", Param{"key", "value"})
	m.Data = []byte("0123456789")
	enc, err := BinaryCodec{}.Encode(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix must fail cleanly, never panic.
	for i := 0; i < len(enc); i++ {
		if _, err := (BinaryCodec{}).Decode(enc[:i]); err == nil {
			t.Errorf("decode of %d-byte prefix unexpectedly succeeded", i)
		}
	}
}

func TestBinaryDecodeTrailing(t *testing.T) {
	enc, err := BinaryCodec{}.Encode(nil, &Message{Kind: KindBye})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (BinaryCodec{}).Decode(append(enc, 0)); err != ErrTrailing {
		t.Errorf("trailing byte: got err %v, want ErrTrailing", err)
	}
}

func TestBinaryDecodeHostileLengths(t *testing.T) {
	// A frame claiming a gigantic string must be rejected without
	// allocating it.
	payload := []byte{byte(KindCommand), 0 /*status*/, 0 /*seq*/}
	payload = appendUvarint(payload, uint64(MaxStringLen)+1) // app length
	if _, err := (BinaryCodec{}).Decode(payload); err != ErrTooLarge {
		t.Errorf("hostile string length: got %v, want ErrTooLarge", err)
	}
	// Gigantic param count.
	p2 := []byte{byte(KindCommand), 0, 0}
	for i := 0; i < 4; i++ { // app, client, op, text all empty
		p2 = appendUvarint(p2, 0)
	}
	p2 = appendUvarint(p2, uint64(MaxParams)+1)
	if _, err := (BinaryCodec{}).Decode(p2); err != ErrTooLarge {
		t.Errorf("hostile param count: got %v, want ErrTooLarge", err)
	}
}

func TestEncodeLimits(t *testing.T) {
	big := strings.Repeat("x", MaxStringLen+1)
	cases := []*Message{
		{Kind: KindCommand, App: big},
		{Kind: KindCommand, Text: big},
		{Kind: KindCommand, Params: []Param{{Key: big}}},
		{Kind: KindCommand, Data: make([]byte, MaxDataLen+1)},
	}
	for i, m := range cases {
		if _, err := (BinaryCodec{}).Encode(nil, m); err != ErrTooLarge {
			t.Errorf("case %d: binary Encode err = %v, want ErrTooLarge", i, err)
		}
	}
}

func TestDecodeEmptyInput(t *testing.T) {
	if _, err := (BinaryCodec{}).Decode(nil); err == nil {
		t.Error("binary Decode(nil) should fail")
	}
}
