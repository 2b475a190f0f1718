package orb

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"discover/internal/wire"
)

// resetCodecCaches empties both engine caches so a test sees first use.
func resetCodecCaches() {
	encoders.Lock()
	encoders.idle = make(map[reflect.Type][]*primedEnc)
	encoders.Unlock()
	decoders.Lock()
	decoders.idle = make(map[string][]*primedDec)
	decoders.Unlock()
}

// cachedKeys reports how many keys each engine cache holds.
func cachedKeys() (enc, dec int) {
	encoders.Lock()
	enc = len(encoders.idle)
	encoders.Unlock()
	decoders.Lock()
	dec = len(decoders.idle)
	decoders.Unlock()
	return enc, dec
}

// freshGob is the reference encoding: what a new gob.Encoder writes.
func freshGob(t testing.TB, v any) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("%T: %v", v, err)
	}
	return buf.Bytes()
}

// fill sets every exported field reachable from v to a non-zero value,
// with one element per slice and map (so the encoding is deterministic)
// and pointers, slices and maps followed depth levels deep.
func fill(v reflect.Value, depth int) {
	switch v.Kind() {
	case reflect.Pointer:
		if depth > 0 {
			v.Set(reflect.New(v.Type().Elem()))
			fill(v.Elem(), depth-1)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), depth)
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), depth)
		}
	case reflect.Slice:
		if depth > 0 {
			v.Set(reflect.MakeSlice(v.Type(), 1, 1))
			fill(v.Index(0), depth-1)
		}
	case reflect.Map:
		if depth > 0 {
			k := reflect.New(v.Type().Key()).Elem()
			e := reflect.New(v.Type().Elem()).Elem()
			fill(k, depth-1)
			fill(e, depth-1)
			v.Set(reflect.MakeMap(v.Type()))
			v.SetMapIndex(k, e)
		}
	case reflect.String:
		v.SetString("x")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(-7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1.5)
	}
}

// checkByteIdentity marshals the zero and a filled value of each type,
// as values and as pointers, on first use and on reuse, and compares
// every result with a new encoder's output.
func checkByteIdentity(t *testing.T, types ...any) {
	for _, typ := range types {
		filled := reflect.New(reflect.TypeOf(typ))
		fill(filled.Elem(), 3)
		zero := reflect.New(reflect.TypeOf(typ))
		for _, v := range []any{zero.Elem().Interface(), filled.Elem().Interface(), filled.Interface()} {
			want := freshGob(t, v)
			for use := 0; use < 3; use++ {
				got, err := Marshal(v)
				if err != nil {
					t.Fatalf("%T use %d: %v", v, use, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%T use %d: cached Marshal differs from a new encoder\n got %x\nwant %x", v, use, got, want)
				}
				out := reflect.New(reflect.TypeOf(v))
				if err := Unmarshal(got, out.Interface()); err != nil {
					t.Fatalf("%T use %d: Unmarshal: %v", v, use, err)
				}
			}
		}
	}
}

func TestCodecByteIdentity(t *testing.T) {
	resetCodecCaches()
	checkByteIdentity(t,
		ObjRef{}, RemoteError{}, Offer{},
		exportReq{}, exportResp{}, withdrawReq{}, refreshReq{}, traderResp{}, queryReq{}, queryResp{},
		benchDeliverBatch{}, "text", uint64(7), []byte("raw"),
	)
}

// codecConcrete is a concrete type carried inside interface values.
type codecConcrete struct{ N int }

// TestCodecInterfaceTypesUncached checks the types whose gob encoding
// depends on the value, not only the type, are never cached and still
// encode like a new encoder: an interface field, and a top-level
// interface behind a pointer.
func TestCodecInterfaceTypesUncached(t *testing.T) {
	resetCodecCaches()
	type withAny struct{ X any }
	gob.Register(codecConcrete{})
	var nilAny any
	var structAny any = codecConcrete{N: 1}
	for _, v := range []any{withAny{X: codecConcrete{N: 1}}, withAny{}, withAny{X: "s"}, &structAny, &nilAny, &structAny} {
		got, err := Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if want := freshGob(t, v); !bytes.Equal(got, want) {
			t.Fatalf("%T: cached Marshal differs from a new encoder", v)
		}
	}
	var back withAny
	p, _ := Marshal(withAny{X: "s"})
	if err := Unmarshal(p, &back); err != nil || back.X != "s" {
		t.Fatalf("Unmarshal = %+v, %v", back, err)
	}
	nenc, ndec := cachedKeys()
	if nenc != 0 || ndec != 0 {
		t.Fatalf("interface types cached: %d encoder keys, %d decoder keys", nenc, ndec)
	}
}

type codecFuzzT struct {
	A int
	S string
	B []byte
	M map[string]int64
	P *codecFuzzT
	L []ObjRef
}

// codecFuzzSubset decodes codecFuzzT's wire type while ignoring most of
// its fields, so the fuzzer also exercises gob's ignore engines.
type codecFuzzSubset struct {
	S string
	L []ObjRef
}

// codecFuzzAny has an interface field: gob defines the concrete type of
// an interface value where the value is, not in the descriptor prefix.
type codecFuzzAny struct {
	S any
	A int
}

// interfaceSeeds encodes v, whose descriptor prefix is n bytes long and
// whose interface value gob defines inline, into a primer and a hostile
// stream sharing that prefix. The primer defines a type inside its value
// segment; the hostile stream uses the type without defining it. A new
// decoder accepts the primer and rejects the hostile stream, so a decoder
// kept from the primer and reused for the hostile stream would disagree.
func interfaceSeeds(t testing.TB, v any, n int) (primer, hostile []byte) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	// A new encoder ends the value message after the inline definition
	// and sends the rest as a second message, which SplitGobValue rejects.
	// Merged into one value segment (the second message's count becomes
	// the skipped count gob allows after an interface's definition), the
	// stream splits and still decodes.
	full := buf.Bytes()
	rest := full[n:]
	first := int(rest[0])
	if first >= 0x80 || len(rest)-1 >= 0x80 {
		t.Fatal("interface seed outgrew one-byte message counts")
	}
	primer = append(append([]byte(nil), full[:n]...), byte(len(rest)-1))
	primer = append(append(primer, rest[1:1+first]...), rest[1+first:]...)
	buf.Reset()
	if err := enc.Encode(v); err != nil { // no definitions: enc sent them all
		t.Fatal(err)
	}
	hostile = append(append([]byte(nil), full[:n]...), buf.Bytes()...)
	if _, err := wire.SplitGobValue(primer); err != nil {
		t.Fatal("primer seed does not split:", err)
	}
	a, b := reflect.New(reflect.TypeOf(v)), reflect.New(reflect.TypeOf(v))
	if err := gob.NewDecoder(bytes.NewReader(primer)).Decode(a.Interface()); err != nil ||
		!reflect.DeepEqual(a.Elem().Interface(), v) {
		t.Fatalf("primer seed: %+v, %v", a.Elem().Interface(), err)
	}
	if err := gob.NewDecoder(bytes.NewReader(hostile)).Decode(b.Interface()); err == nil {
		t.Fatal("hostile seed decodes on a new decoder")
	}
	return primer, hostile
}

var codecFuzzSample = codecFuzzT{
	A: 3, S: "steer", B: []byte{1, 2}, M: map[string]int64{"k": 9},
	P: &codecFuzzT{S: "inner"}, L: []ObjRef{{Addr: "a:1", Key: "k"}},
}

// checkAgree decodes data with a new gob.Decoder and twice with
// Unmarshal, the second time with whatever the first kept, and fails
// unless all three succeed with equal values or all fail.
func checkAgree[T any](t *testing.T, data []byte) {
	var want T
	werr := gob.NewDecoder(bytes.NewReader(data)).Decode(&want)
	for use := 0; use < 2; use++ {
		var got T
		gerr := Unmarshal(data, &got)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%T use %d: cached err %v, uncached err %v", got, use, gerr, werr)
		}
		if werr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%T use %d: cached %+v, uncached %+v", got, use, got, want)
		}
	}
}

// FuzzUnmarshal is a differential check: the cached decoders must agree
// with a new decoder on arbitrary bytes, and a decoder that failed on an
// input must not be reused for the next. The caches persist across
// inputs, as they do in a live process.
func FuzzUnmarshal(f *testing.F) {
	good := freshGob(f, codecFuzzSample)
	n, err := wire.SplitGobValue(good)
	if err != nil {
		f.Fatal(err)
	}
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)-2] ^= 0xff
	f.Add(good)
	f.Add(freshGob(f, codecFuzzT{A: -1}))
	f.Add(corrupt)
	f.Add(append(append([]byte(nil), good[:n]...), 0x03, 0xff, 0x82, 0x00)) // prefix + bogus value
	f.Add(good[:n])
	// Interface values that define their type inline, in a field and at
	// the top level (an empty prefix).
	gob.Register(codecConcrete{})
	nilField := freshGob(f, codecFuzzAny{A: 1})
	fieldPrefix, err := wire.SplitGobValue(nilField)
	if err != nil {
		f.Fatal(err)
	}
	var top any = codecConcrete{N: 2}
	for _, seed := range []struct {
		v any
		n int
	}{{codecFuzzAny{S: codecConcrete{N: 2}, A: 1}, fieldPrefix}, {&top, 0}} {
		primer, hostile := interfaceSeeds(f, seed.v, seed.n)
		f.Add(primer)
		f.Add(hostile)
	}
	f.Add(freshGob(f, "text"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgree[codecFuzzT](t, data)
		checkAgree[codecFuzzSubset](t, data)
		checkAgree[codecFuzzAny](t, data)
		checkAgree[any](t, data)
		var back codecFuzzT
		if err := Unmarshal(good, &back); err != nil || !reflect.DeepEqual(back, codecFuzzSample) {
			t.Fatalf("known-good stream after %x: %+v, %v", data, back, err)
		}
	})
}

// TestCodecHammer runs many goroutines marshalling and unmarshalling a
// mix of types through the shared caches; run it with -race.
func TestCodecHammer(t *testing.T) {
	resetCodecCaches()
	batch := benchBatch(4)
	values := []any{
		codecFuzzSample, &codecFuzzSample, queryReq{ServiceType: DiscoverServiceType, Constraint: "name != 'rutgers'"},
		exportResp{OfferID: "offer-1"}, &RemoteError{Code: CodeComm, Msg: "down"},
		batch, "text", int64(-5), queryResp{Offers: []Offer{{ID: "o1", Props: map[string]string{"k": "v"}}}},
	}
	want := make([][]byte, len(values))
	for i, v := range values {
		want[i] = freshGob(t, v)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				k := (g + i) % len(values)
				p, err := Marshal(values[k])
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(p, want[k]) {
					t.Errorf("%T: Marshal differs from a new encoder", values[k])
					return
				}
				out := reflect.New(reflect.TypeOf(values[k]))
				if err := Unmarshal(p, out.Interface()); err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(out.Elem().Interface(), values[k]) {
					t.Errorf("%T: round trip %+v", values[k], out.Elem().Interface())
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCodecCacheBound drives more distinct types and descriptor prefixes
// through the codec than the caches admit: the caches stop at their
// caps, and everything past them still round-trips on the fallback.
func TestCodecCacheBound(t *testing.T) {
	resetCodecCaches()
	defer resetCodecCaches()
	type target struct{ A int }
	for i := 0; i < codecMaxKeys+40; i++ {
		typ := reflect.StructOf([]reflect.StructField{
			{Name: "A", Type: reflect.TypeOf(0)},
			{Name: fmt.Sprintf("F%d", i), Type: reflect.TypeOf("")},
		})
		v := reflect.New(typ).Elem()
		v.Field(0).SetInt(int64(i + 1))
		p, err := Marshal(v.Interface())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p, freshGob(t, v.Interface())) {
			t.Fatalf("type %d: Marshal differs from a new encoder", i)
		}
		var got target
		if err := Unmarshal(p, &got); err != nil || got.A != i+1 {
			t.Fatalf("type %d: Unmarshal = %+v, %v", i, got, err)
		}
	}
	nenc, ndec := cachedKeys()
	if nenc != codecMaxKeys || ndec != codecMaxKeys {
		t.Fatalf("cache keys: %d encoder, %d decoder; cap %d", nenc, ndec, codecMaxKeys)
	}

	// Oversized prefixes and values are never kept, even with room.
	resetCodecCaches()
	var wide []reflect.StructField
	for i := 0; i < 200; i++ {
		wide = append(wide, reflect.StructField{Name: fmt.Sprintf("Field%040d", i), Type: reflect.TypeOf(0)})
	}
	big := struct{ B []byte }{B: make([]byte, codecMaxValue+1)}
	for _, v := range []any{reflect.New(reflect.StructOf(wide)).Elem().Interface(), big} {
		p, err := Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := Unmarshal(p, reflect.New(reflect.TypeOf(v)).Interface()); err != nil {
			t.Fatal(err)
		}
	}
	nenc, ndec = cachedKeys()
	if nenc != 0 || ndec != 0 {
		t.Fatalf("oversized engines kept: %d encoder, %d decoder keys", nenc, ndec)
	}

	// Each key keeps at most codecMaxIdle idle engines.
	for i := 0; i < 2*codecMaxIdle; i++ {
		putDecoder(&primedDec{key: "k"})
	}
	if n := len(decoders.idle["k"]); n != codecMaxIdle {
		t.Fatalf("idle decoders for one key: %d, cap %d", n, codecMaxIdle)
	}
}

// benchDeliverItem and benchDeliverBatch mirror the relay's deliverBatch
// arguments (internal/core).
type benchDeliverItem struct {
	App string
	Msg *wire.Message
}

type benchDeliverBatch struct {
	Items []benchDeliverItem
	From  string
}

func benchBatch(n int) benchDeliverBatch {
	b := benchDeliverBatch{From: "caltech"}
	for i := 0; i < n; i++ {
		b.Items = append(b.Items, benchDeliverItem{App: "rutgers#1", Msg: &wire.Message{
			Kind: wire.KindUpdate, App: "rutgers#1", Client: "rutgers", Seq: uint64(i + 1), Op: "phase",
			Params: []wire.Param{{Key: "t", Value: "0.25"}, {Key: "energy", Value: "1.5e3"}},
		}})
	}
	return b
}

// BenchmarkCodec measures the argument codec per invocation: Marshal
// plus Unmarshal of a four-message relay batch, and of both legs of a
// small two-way request (a trader query).
func BenchmarkCodec(b *testing.B) {
	batch := benchBatch(4)
	b.Run("deliverBatch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := Marshal(batch)
			if err != nil {
				b.Fatal(err)
			}
			var out benchDeliverBatch
			if err := Unmarshal(p, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("query", func(b *testing.B) {
		b.ReportAllocs()
		req := queryReq{ServiceType: DiscoverServiceType, Constraint: "name != 'rutgers'"}
		resp := queryResp{Offers: []Offer{{
			ID: "offer-1", ServiceType: DiscoverServiceType,
			Ref:   ObjRef{Addr: "127.0.0.1:7201", Key: "DiscoverServer"},
			Props: map[string]string{"name": "caltech", "addr": "127.0.0.1:7201"},
		}}}
		for i := 0; i < b.N; i++ {
			p, err := Marshal(req)
			if err != nil {
				b.Fatal(err)
			}
			var in queryReq
			if err := Unmarshal(p, &in); err != nil {
				b.Fatal(err)
			}
			if p, err = Marshal(resp); err != nil {
				b.Fatal(err)
			}
			var out queryResp
			if err := Unmarshal(p, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
