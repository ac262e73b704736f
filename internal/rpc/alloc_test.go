package rpc

import (
	"reflect"
	"testing"

	"clam/internal/bundle"
)

// Allocation guards for the codec fast path: encoding a call entry
// (header + tagged args) into a pooled Scratch must not allocate once
// the workspace and bundler cache are warm. This pins the post-pooling
// count so a regression reintroducing per-call buffers fails loudly.

// maxEncodeAllocs is the pinned budget for one header+args encode into a
// warm Scratch. The steady state measures 0; one unit of slack absorbs a
// rare mid-run GC clearing the pool.
const maxEncodeAllocs = 1

func TestAllocsScratchCallEncode(t *testing.T) {
	reg := bundle.NewRegistry()
	ctx := &bundle.Ctx{}
	hdr := CallHeader{Seq: 7, Method: "Write"}
	// Pre-box the arguments: reflect.ValueOf inside the loop would charge
	// the caller's boxing to the codec.
	x, s := int64(42), "hello"
	args := []reflect.Value{reflect.ValueOf(x), reflect.ValueOf(s)}

	encode := func(sc *Scratch) {
		enc := sc.Encoder()
		if err := hdr.Bundle(enc); err != nil {
			t.Fatal(err)
		}
		for _, v := range args {
			if err := EncodeValue(reg, ctx, enc, v); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Warm the scratch pool and the bundler compilation cache.
	for i := 0; i < 8; i++ {
		sc := GetScratch()
		encode(sc)
		sc.Release()
	}
	allocs := testing.AllocsPerRun(200, func() {
		sc := GetScratch()
		encode(sc)
		sc.Release()
	})
	if allocs > maxEncodeAllocs {
		t.Errorf("scratch call encode allocates %.1f objects/op, budget %d", allocs, maxEncodeAllocs)
	}
}

// Decoding from a Scratch must round-trip what the encoder produced and
// stay allocation-free apart from the decoded values themselves.
func TestScratchEncodeDecodeRoundTrip(t *testing.T) {
	reg := bundle.NewRegistry()
	ctx := &bundle.Ctx{}
	sc := GetScratch()
	defer sc.Release()

	enc := sc.Encoder()
	hdr := CallHeader{Seq: 9, Method: "Line"}
	if err := hdr.Bundle(enc); err != nil {
		t.Fatal(err)
	}
	want := int64(1234)
	if err := EncodeValue(reg, ctx, enc, reflect.ValueOf(want)); err != nil {
		t.Fatal(err)
	}

	// The workspace flips from encode to decode over its own bytes; the
	// decoder copies values out, so this mirrors the decode-then-release
	// pattern the session uses. Copy first: Decoder rearms the stream but
	// Bytes' storage is shared with the encode buffer.
	body := append([]byte(nil), sc.Bytes()...)
	dec := sc.Decoder(body)
	var got CallHeader
	if err := got.Bundle(dec); err != nil {
		t.Fatal(err)
	}
	if got.Seq != hdr.Seq || got.Method != hdr.Method {
		t.Fatalf("header round trip: got %+v, want %+v", got, hdr)
	}
	var x int64
	if err := DecodeValue(reg, ctx, dec, reflect.ValueOf(&x).Elem()); err != nil {
		t.Fatal(err)
	}
	if x != want {
		t.Fatalf("value round trip: got %d, want %d", x, want)
	}
}

type allocTarget struct{ total int64 }

func (a *allocTarget) Add(x int64) { a.total += x }

// The per-call path of the dispatcher — take a frame from the stub's pool,
// decode the arguments into its cells, one reflect.Call, release — must
// not allocate for a method like func(int64): nothing on it is built per
// call any more.
func TestAllocsDecodeArgsAndInvoke(t *testing.T) {
	reg := bundle.NewRegistry()
	ctx := &bundle.Ctx{}
	cs, err := CompileClass(reg, reflect.TypeOf(&allocTarget{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	add, err := cs.Method("Add")
	if err != nil {
		t.Fatal(err)
	}
	sc := GetScratch()
	defer sc.Release()
	if err := add.EncodeArgs(ctx, sc.Encoder(), []reflect.Value{reflect.ValueOf(int64(5))}); err != nil {
		t.Fatal(err)
	}
	body := append([]byte(nil), sc.Bytes()...)
	target := &allocTarget{}
	recv := reflect.ValueOf(target)

	call := func() {
		f := add.Frame()
		if err := add.DecodeInto(ctx, sc.Decoder(body), f); err != nil {
			t.Fatal(err)
		}
		if _, err := add.Call(nil, recv, f); err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	call() // warm the frame pool
	if allocs := testing.AllocsPerRun(200, call); allocs != 0 {
		t.Errorf("decode-args + invoke of func(int64) allocates %.1f objects/op, want 0", allocs)
	}
	if target.total != 5*202 {
		t.Errorf("Add ran with wrong arguments: total %d", target.total)
	}
}

// Decoding a call header in place and resolving its method name must not
// build a string: the name is a view into the body, and a map lookup keyed
// by string(view) does not allocate.
func TestAllocsInPlaceHeaderDecode(t *testing.T) {
	cs, err := CompileClass(bundle.NewRegistry(), reflect.TypeOf(&allocTarget{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	sc := GetScratch()
	defer sc.Release()
	hdr := CallHeader{Seq: 7, Budget: 9, Method: "Add"}
	if err := hdr.Bundle(sc.Encoder()); err != nil {
		t.Fatal(err)
	}
	body := append([]byte(nil), sc.Bytes()...)

	var got CallHeader
	var stub *MethodStub
	allocs := testing.AllocsPerRun(200, func() {
		method, err := got.DecodeInPlace(sc.Decoder(body))
		if err != nil {
			t.Fatal(err)
		}
		if stub, err = cs.Lookup(method); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("in-place header decode + lookup allocates %.1f objects/op, want 0", allocs)
	}
	if got.Seq != 7 || got.Budget != 9 || got.Method != "" || stub.Name != "Add" {
		t.Errorf("decoded %+v, resolved %q", got, stub.Name)
	}
}
