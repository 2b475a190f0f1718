package wire

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"testing"
)

// FuzzBinaryDecode hardens the compact codec against hostile frames: any
// input must either fail cleanly or decode to a message that re-encodes
// and re-decodes to the same value (no panics, no allocation bombs).
func FuzzBinaryDecode(f *testing.F) {
	seed := []*Message{
		{Kind: KindBye},
		NewCommand("srv#1", "srv/client-1", "set_param",
			Param{Key: "name", Value: "x"}, Param{Key: "value", Value: "1.5"}),
		NewUpdate("srv#1", 42, Param{Key: "m.step", Value: "7"}),
		{Kind: KindWhiteboard, Data: []byte{0, 1, 2, 3}},
	}
	for _, m := range seed {
		enc, err := BinaryCodec{}.Encode(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := BinaryCodec{}.Decode(data)
		if err != nil {
			return // clean rejection
		}
		re, err := BinaryCodec{}.Encode(nil, m)
		if err != nil {
			t.Fatalf("decoded message fails to re-encode: %v", err)
		}
		m2, err := BinaryCodec{}.Decode(re)
		if err != nil {
			t.Fatalf("re-encoded message fails to decode: %v", err)
		}
		if !m.Equal(m2) {
			t.Fatalf("re-round-trip mutated message:\n first %v\n second %v", m, m2)
		}
	})
}

// FuzzFrameReader hardens the length-prefixed framing against truncation
// and hostile lengths.
func FuzzFrameReader(f *testing.F) {
	var buf bytes.Buffer
	WriteFrame(&buf, []byte("hello"))
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			payload, err := ReadFrame(r)
			if err != nil {
				return
			}
			if len(payload) > MaxFrameSize {
				t.Fatalf("frame above MaxFrameSize accepted: %d", len(payload))
			}
		}
	})
}

// FuzzV2Frame hardens the v2 frame layer: arbitrary bytes — including
// truncated headers, oversized varints, and v1 frames arriving on a
// connection that negotiated v2 — must parse to a bounded frame or error,
// never panic. Both the slice parser and the stream reader run over the
// same input and must agree on acceptance.
func FuzzV2Frame(f *testing.F) {
	f.Add(AppendV2Header(nil, V2FrameRequest, V2FlagOneway, 3, 0))
	withPayload := AppendV2Header(nil, V2FrameReply, 0, 9, 5)
	f.Add(append(withPayload, "hello"...))
	f.Add(AppendV2Header(nil, V2FrameCredit, 0, 1<<40, 4))
	// Cross-version garbage: a v1 frame (4-byte BE length prefix).
	var v1 bytes.Buffer
	WriteFrame(&v1, []byte("v1 payload"))
	f.Add(v1.Bytes())
	f.Add([]byte{0x01, 0xFF})
	f.Add([]byte{byte(V2FrameChunk), 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02})

	f.Fuzz(func(t *testing.T, data []byte) {
		h, n, err := ParseV2Header(data)
		if err == nil {
			if !h.Type.Valid() || h.Length > MaxFrameSize || n <= 0 {
				t.Fatalf("invalid header accepted: %+v consumed=%d", h, n)
			}
		}
		hr, payload, rerr := ReadV2Frame(bufio.NewReader(bytes.NewReader(data)), nil)
		if rerr == nil {
			if err != nil {
				t.Fatalf("reader accepted what parser rejected (%v): %+v", err, hr)
			}
			if hr != h || len(payload) != h.Length {
				t.Fatalf("parser/reader disagree: %+v vs %+v (payload %d)", h, hr, len(payload))
			}
		}
	})
}

// FuzzSplitGobValue hardens the descriptor-boundary walk, the interface
// walk over descriptors and the receiver-side interning against hostile
// DEF payloads.
func FuzzSplitGobValue(f *testing.F) {
	var buf bytes.Buffer
	gob.NewEncoder(&buf).Encode(struct{ A int }{7})
	f.Add(buf.Bytes())
	f.Add([]byte{0x05, 0xFF, 1, 2, 3})
	f.Add([]byte{0x80})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		descLen, err := SplitGobValue(data)
		if err == nil && (descLen < 0 || descLen >= len(data)) {
			t.Fatalf("descLen %d of %d accepted", descLen, len(data))
		}
		StaticGobPrefix(data) // must not panic regardless of input
		if err == nil {
			StaticGobPrefix(data[:descLen])
		}
		defs := NewInternDefs()
		if derr := defs.Define(1, data); derr == nil {
			if _, ok := defs.Resolve(1); !ok {
				t.Fatal("accepted definition not resolvable")
			}
		}
		tbl := NewInternTable()
		tbl.Intern(data) // must not panic regardless of input
	})
}

// FuzzDecompressPayload hardens the bulk decompression path: hostile
// deflate streams and lying length declarations must error within the
// declared bound, never panic or over-allocate.
func FuzzDecompressPayload(f *testing.F) {
	comp, ok := CompressPayload(nil, bytes.Repeat([]byte("abcdef"), 200))
	if ok {
		f.Add(comp)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Add(appendUvarint(nil, 1<<62))

	f.Fuzz(func(t *testing.T, data []byte) {
		raw, err := DecompressPayload(data, 1<<16)
		if err == nil && len(raw) > 1<<16 {
			t.Fatalf("inflated %d bytes past the bound", len(raw))
		}
	})
}
