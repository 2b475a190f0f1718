package orb

import (
	"testing"

	"discover/internal/wire"
)

// FuzzParseConstraint hardens the trader constraint parser: arbitrary
// input must parse-or-reject without panicking, and whatever parses must
// evaluate without panicking on arbitrary property sets.
func FuzzParseConstraint(f *testing.F) {
	for _, s := range []string{
		"",
		"true",
		"name == 'rutgers'",
		"apps > 10 and load < 1.5",
		"not (a == b) or exist c",
		"x == 'quo\\'ted'",
		"((((",
		"a == == b",
		"-1e99 <= a",
	} {
		f.Add(s)
	}
	props := map[string]string{"name": "rutgers", "apps": "12", "load": "0.75"}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseConstraint(src)
		if err != nil {
			return
		}
		_ = c.Eval(props)
		_ = c.Eval(map[string]string{})
		_ = c.String()
	})
}

// fuzzV2Seeds renders valid v2 payloads (target/blob defs and refs) to
// seed the corpora below.
func fuzzV2Seeds() [][]byte {
	var stats orbStats
	tt := newTargetTable()
	it := wire.NewInternTable()
	args, _ := Marshal(struct{ A int }{7})
	var seeds [][]byte
	// First use: DEF-heavy payload. Second: REF-heavy.
	seeds = append(seeds, appendRequestV2(nil, tt, it, &stats, &request{id: 1, key: "k", method: "m", args: args}))
	seeds = append(seeds, appendRequestV2(nil, tt, it, &stats, &request{id: 2, key: "k", method: "m", args: args, trace: 9}))
	rit := wire.NewInternTable()
	seeds = append(seeds, appendReplyV2(nil, rit, &stats, &reply{id: 1, status: replyOK, body: args}))
	seeds = append(seeds, appendReplyV2(nil, rit, &stats, &reply{id: 2, status: replyUserError, body: args, trace: 5, servantNanos: 7}))
	seeds = append(seeds, appendEndV2(nil, &reply{id: 3, status: replyOK, trace: 1}))
	// A stray connection preface fed to the payload decoders.
	seeds = append(seeds, []byte(wireMagic))
	seeds = append(seeds, []byte{})
	seeds = append(seeds, []byte{targetRef, 0xFF})
	seeds = append(seeds, []byte{targetDef, 0x01, 0x01, 'k'})
	return seeds
}

// FuzzDecodeRequestV2 hardens the v2 request decoder against hostile
// payloads: bogus target/descriptor ids, truncated blobs, out-of-sequence
// definitions, and stray prefaces must error, never panic. The interning
// tables persist across inputs, as they do on a live connection.
func FuzzDecodeRequestV2(f *testing.F) {
	for _, s := range fuzzV2Seeds() {
		f.Add(s)
	}
	td := newTargetDefs()
	defs := wire.NewInternDefs()
	f.Fuzz(func(t *testing.T, data []byte) {
		rq, err := decodeRequestV2(data, 1, false, td, defs)
		if err != nil {
			return
		}
		if rq == nil || rq.id != 1 {
			t.Fatal("decodeRequestV2 returned bad request without error")
		}
	})
}

// FuzzDecodeReplyV2 hardens the v2 reply and END decoders the same way.
func FuzzDecodeReplyV2(f *testing.F) {
	for _, s := range fuzzV2Seeds() {
		f.Add(s)
	}
	defs := wire.NewInternDefs()
	f.Fuzz(func(t *testing.T, data []byte) {
		if rp, err := decodeReplyV2(data, 2, defs); err == nil && (rp == nil || rp.id != 2) {
			t.Fatal("decodeReplyV2 returned bad reply without error")
		}
		if rp, err := decodeEndV2(data, 3, []byte("body")); err == nil && (rp == nil || rp.id != 3) {
			t.Fatal("decodeEndV2 returned bad reply without error")
		}
	})
}
