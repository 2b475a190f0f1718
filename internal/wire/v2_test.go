package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"net/url"
	"strings"
	"testing"
	"time"
)

func TestV2HeaderRoundTrip(t *testing.T) {
	cases := []struct {
		typ     V2FrameType
		flags   uint8
		stream  uint64
		payload int
	}{
		{V2FrameRequest, 0, 1, 0},
		{V2FrameRequest, V2FlagOneway, 7, 42},
		{V2FrameReply, V2FlagCompressed, 1 << 20, 9000},
		{V2FrameChunk, 0, 300, V2ChunkSize},
		{V2FrameEnd, 0, 300, 1},
		{V2FrameCredit, 0, 300, 4},
		{V2FrameRequest, V2FlagBulk | V2FlagCompressed, 1<<63 + 5, MaxFrameSize},
	}
	for _, c := range cases {
		b := AppendV2Header(nil, c.typ, c.flags, c.stream, c.payload)
		h, n, err := ParseV2Header(b)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if n != len(b) {
			t.Fatalf("%v: consumed %d of %d header bytes", c, n, len(b))
		}
		if h.Type != c.typ || h.Flags != c.flags || h.Stream != c.stream || h.Length != c.payload {
			t.Fatalf("round trip mutated header: sent %+v got %+v", c, h)
		}
	}
	// Small frames must pack into 4-6 header bytes, the size claim v2 makes
	// against v1's fixed preamble.
	b := AppendV2Header(nil, V2FrameRequest, 0, 9, 100)
	if len(b) != 4 {
		t.Fatalf("small frame header = %d bytes, want 4", len(b))
	}
}

func TestParseV2HeaderRejects(t *testing.T) {
	good := AppendV2Header(nil, V2FrameReply, 0, 5, 10)

	bad := append([]byte(nil), good...)
	bad[0] = 0x00
	if _, _, err := ParseV2Header(bad); !errors.Is(err, ErrV2BadFrame) {
		t.Fatalf("zero frame type: got %v", err)
	}
	bad[0] = byte(v2FrameSentinel)
	if _, _, err := ParseV2Header(bad); !errors.Is(err, ErrV2BadFrame) {
		t.Fatalf("unknown frame type: got %v", err)
	}

	bad = append([]byte(nil), good...)
	bad[1] = 0x80 // undefined flag bit
	if _, _, err := ParseV2Header(bad); !errors.Is(err, ErrV2BadFrame) {
		t.Fatalf("undefined flag: got %v", err)
	}

	if _, _, err := ParseV2Header(good[:1]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated fixed part: got %v", err)
	}
	if _, _, err := ParseV2Header(good[:3]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated varint: got %v", err)
	}

	// An oversized (non-minimal, >10 byte) varint is malformed, not truncated.
	over := []byte{byte(V2FrameRequest), 0,
		0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}
	if _, _, err := ParseV2Header(over); !errors.Is(err, ErrV2BadFrame) {
		t.Fatalf("oversized varint: got %v", err)
	}

	huge := AppendV2Header(nil, V2FrameReply, 0, 5, MaxFrameSize+1)
	if _, _, err := ParseV2Header(huge); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized length: got %v", err)
	}
}

func TestReadV2Frame(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 1000)
	var stream bytes.Buffer
	stream.Write(AppendV2Header(nil, V2FrameChunk, 0, 77, len(payload)))
	stream.Write(payload)
	stream.Write(AppendV2Header(nil, V2FrameEnd, 0, 77, 0))

	br := bufio.NewReader(&stream)
	buf := make([]byte, 0, 2048)
	h, p, err := ReadV2Frame(br, buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != V2FrameChunk || h.Stream != 77 || !bytes.Equal(p, payload) {
		t.Fatalf("first frame: %+v len=%d", h, len(p))
	}
	if &p[0] != &buf[:1][0] {
		t.Fatal("payload did not reuse the caller's buffer")
	}
	h, p, err = ReadV2Frame(br, buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != V2FrameEnd || len(p) != 0 {
		t.Fatalf("second frame: %+v len=%d", h, len(p))
	}
	if _, _, err := ReadV2Frame(br, buf); err != io.EOF {
		t.Fatalf("clean end of stream: got %v", err)
	}

	// Truncated payload must surface as an unexpected EOF, not success.
	var trunc bytes.Buffer
	trunc.Write(AppendV2Header(nil, V2FrameReply, 0, 1, 50))
	trunc.WriteString("short")
	if _, _, err := ReadV2Frame(bufio.NewReader(&trunc), nil); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated payload: got %v", err)
	}
}

type internSmall struct {
	A int
	B string
}

type internOther struct {
	X []byte
}

func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSplitGobValue(t *testing.T) {
	full := gobBytes(t, internSmall{A: 7, B: "hello"})
	descLen, err := SplitGobValue(full)
	if err != nil {
		t.Fatal(err)
	}
	if descLen <= 0 || descLen >= len(full) {
		t.Fatalf("descLen = %d of %d", descLen, len(full))
	}
	// Re-joining prefix and value must decode as the original, and the
	// value of a second message of the same type must decode under the
	// first message's prefix — the property interning relies on.
	second := gobBytes(t, internSmall{A: 99, B: "world"})
	descLen2, err := SplitGobValue(second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full[:descLen], second[:descLen2]) {
		t.Fatal("same type produced different descriptor prefixes")
	}
	joined := append(append([]byte(nil), full[:descLen]...), second[descLen2:]...)
	var got internSmall
	if err := gob.NewDecoder(bytes.NewReader(joined)).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.A != 99 || got.B != "world" {
		t.Fatalf("spliced decode got %+v", got)
	}

	// A predefined type has no descriptor segments.
	iv := 5
	intFull := gobBytes(t, &iv)
	if n, err := SplitGobValue(intFull); err != nil || n != 0 {
		t.Fatalf("predefined type: descLen=%d err=%v", n, err)
	}

	// Garbage and truncations must error, never panic.
	for _, b := range [][]byte{nil, {0}, {0xFF}, {0x05, 1, 2}, full[:descLen], full[:len(full)-1]} {
		if _, err := SplitGobValue(b); err == nil {
			t.Fatalf("accepted malformed stream %x", b)
		}
	}
}

type staticInner struct {
	Name string
	Next *staticInner
}

// TestStaticGobPrefix checks the interface walk over every wireType
// shape: arrays, slices, structs, maps and GobEncoder/BinaryMarshaler
// types are static; an interface anywhere, at any depth, is not.
func TestStaticGobPrefix(t *testing.T) {
	for _, tc := range []struct {
		v      any
		static bool
	}{
		{internSmall{A: 1, B: "x"}, true},
		{struct{ A [3]int32 }{}, true},
		{struct{ M map[string][]byte }{M: map[string][]byte{"k": {1}}}, true},
		{struct{ P *staticInner }{P: &staticInner{Name: "r", Next: &staticInner{}}}, true},
		{struct{ T time.Time }{T: time.Unix(1, 2)}, true},
		{struct{ U *url.URL }{U: &url.URL{Host: "h"}}, true},
		{struct{ X any }{X: 1}, false},
		{struct{ M map[string]any }{M: map[string]any{"k": 1}}, false},
		{struct{ K map[any]int }{K: map[any]int{1: 1}}, false},
		{struct{ L []any }{L: []any{"s"}}, false},
		{struct{ A [2]any }{}, false},
		{struct{ In struct{ Y []map[int]any } }{}, false},
	} {
		full := gobBytes(t, tc.v)
		n, err := SplitGobValue(full)
		if err != nil {
			t.Fatalf("%T: %v", tc.v, err)
		}
		if got := StaticGobPrefix(full[:n]); got != tc.static {
			t.Errorf("%T: StaticGobPrefix = %v, want %v", tc.v, got, tc.static)
		}
		// A prefix with its last segment cut short is malformed.
		if StaticGobPrefix(full[:n-1]) {
			t.Errorf("%T: truncated prefix reported static", tc.v)
		}
	}
	if !StaticGobPrefix(nil) {
		t.Error("empty prefix (predefined types) must be static")
	}
}

func TestInternTables(t *testing.T) {
	sender := NewInternTable()
	receiver := NewInternDefs()

	first := gobBytes(t, internSmall{A: 1, B: "a"})
	id, _, def, ok := sender.Intern(first)
	if !ok || !def || id != 1 {
		t.Fatalf("first use: id=%d def=%v ok=%v", id, def, ok)
	}
	if err := receiver.Define(id, first); err != nil {
		t.Fatal(err)
	}

	second := gobBytes(t, internSmall{A: 2, B: "b"})
	id2, descLen, def, ok := sender.Intern(second)
	if !ok || def || id2 != id {
		t.Fatalf("second use: id=%d def=%v ok=%v", id2, def, ok)
	}
	prefix, found := receiver.Resolve(id2)
	if !found {
		t.Fatal("receiver lost the definition")
	}
	var got internSmall
	joined := append(append([]byte(nil), prefix...), second[descLen:]...)
	if err := gob.NewDecoder(bytes.NewReader(joined)).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.A != 2 || got.B != "b" {
		t.Fatalf("REF decode got %+v", got)
	}

	// A different type gets the next id.
	other := gobBytes(t, internOther{X: []byte{1, 2, 3}})
	id3, _, def, ok := sender.Intern(other)
	if !ok || !def || id3 != 2 {
		t.Fatalf("new type: id=%d def=%v ok=%v", id3, def, ok)
	}

	// The receiver enforces sequential ids.
	if err := receiver.Define(5, other); !errors.Is(err, ErrInternID) {
		t.Fatalf("out-of-sequence DEF: got %v", err)
	}
	if err := receiver.Define(2, []byte{0xFF, 0xFF}); err == nil {
		t.Fatal("garbage DEF accepted")
	}
	if err := receiver.Define(2, other); err != nil {
		t.Fatal(err)
	}
	if _, found := receiver.Resolve(99); found {
		t.Fatal("resolved an undefined id")
	}
}

func TestInternTableCap(t *testing.T) {
	sender := &InternTable{ids: make(map[string]uint64), next: MaxInternEntries}
	full := gobBytes(t, internSmall{A: 1})
	if _, _, _, ok := sender.Intern(full); ok {
		t.Fatal("full table still interning new prefixes")
	}
}

func TestCompressPayload(t *testing.T) {
	raw := []byte(strings.Repeat("directory entry payload ", 200))
	out, ok := CompressPayload(nil, raw)
	if !ok {
		t.Fatal("compressible payload not compressed")
	}
	if len(out) >= len(raw) {
		t.Fatalf("compressed %d -> %d", len(raw), len(out))
	}
	back, err := DecompressPayload(out, MaxFrameSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, raw) {
		t.Fatal("round trip mutated payload")
	}

	// Below the threshold compression is skipped and dst is untouched.
	dst := []byte("existing")
	if out, ok := CompressPayload(dst, []byte("tiny")); ok || len(out) != len(dst) {
		t.Fatalf("tiny payload: ok=%v len=%d", ok, len(out))
	}

	// A declared raw length over the bound is rejected before allocation.
	bomb := appendUvarint(nil, 1<<40)
	if _, err := DecompressPayload(bomb, MaxFrameSize); !errors.Is(err, ErrCompressed) {
		t.Fatalf("oversized declaration: got %v", err)
	}
	// A declaration shorter than the actual inflated size is rejected: the
	// stream must end exactly at the declared length.
	_, hdr := binary.Uvarint(out)
	lying := appendUvarint(nil, 3)
	lying = append(lying, out[hdr:]...)
	if _, err := DecompressPayload(lying, MaxFrameSize); !errors.Is(err, ErrCompressed) {
		t.Fatalf("short declaration: got %v", err)
	}
}
